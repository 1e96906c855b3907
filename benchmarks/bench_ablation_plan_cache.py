"""Ablation (beyond the paper's figures) — the execution-plan cache.

Training repeats the same layer shapes every step, yet the seed code
rebuilt its execution machinery per call: window/cycle/segment index tables
on every strategy construction and an ``np.einsum_path`` search inside every
``optimize=True`` contraction.  The :mod:`repro.backend` plan cache keys all
of that on a Workload descriptor (shapes, cg/co, stride/padding/groups,
dtype) and reuses it.

This bench measures exactly that contrast on real kernels: *cold* execution
(plan cache cleared and the strategy/plan rebuilt before every call — the
per-call-recomputation model) vs *warm* execution (plans served from the
cache, as every training step after the first).
"""
from functools import partial

import numpy as np

from common import emit, full_mode
from repro.backend import clear_plan_cache, conv2d_plan, get_kernel, plan_cache_stats
from repro.core.channel_map import SCCConfig
from repro.core.scc_kernels import Dsxplore
from repro.utils import format_table, time_callable


def _scc_case(cin, cout, hw, batch=8, cg=2, co=0.5, seed=0):
    cfg = SCCConfig(cin, cout, cg, co)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, cin, hw, hw)).astype(np.float32)
    w = rng.standard_normal((cout, cfg.group_width)).astype(np.float32)
    return cfg, x, w


def scc_cold_step(cfg, x, w):
    """Per-call recomputation: index tables + contraction paths rebuilt."""
    clear_plan_cache()
    strat = Dsxplore(cfg)
    out = strat.forward(x, w)
    strat.backward(out)


def scc_warm_step(strat, x, w):
    """Cached plans: every lookup is a hit after the first call."""
    out = strat.forward(x, w)
    strat.backward(out)


def conv_cold_step(x, w):
    clear_plan_cache()
    plan = conv2d_plan(x.shape, w.shape, 1, 1, 1, x.dtype)
    out, ctx = get_kernel("conv2d")(plan, x, w)
    get_kernel("conv2d_backward")(plan, ctx, out)


def conv_warm_step(x, w):
    plan = conv2d_plan(x.shape, w.shape, 1, 1, 1, x.dtype)
    out, ctx = get_kernel("conv2d")(plan, x, w)
    get_kernel("conv2d_backward")(plan, ctx, out)


def report_ablation_plan_cache():
    # Enough repeats that the sub-millisecond rows' medians are stable
    # against the speedup gate in test_plan_cache_beats_recomputation.
    repeats = 60 if full_mode() else 25
    rows = []
    # Warm-phase cache counters, aggregated across workloads.  Warm is timed
    # *before* cold for each workload because the cold steps clear the cache
    # (and with it the hit/miss counters).
    warm_cache = {"plans": 0, "hits": 0, "misses": 0}

    def run_case(label, make_warm, cold_fn):
        # Start from an empty cache so "peak plans live" counts only this
        # workload's plans, not whatever ran earlier in the process; the
        # warm step is built after the clear so its plans are counted too.
        clear_plan_cache()
        warm_fn = make_warm()
        warm_fn()   # populate the cache once
        base = plan_cache_stats()
        t_warm = time_callable(warm_fn, repeats=repeats, warmup=1).median
        after = plan_cache_stats()
        warm_cache["plans"] = max(warm_cache["plans"], after["size"])
        warm_cache["hits"] += after["hits"] - base["hits"]
        warm_cache["misses"] += after["misses"] - base["misses"]
        t_cold = time_callable(cold_fn, repeats=repeats, warmup=1).median
        rows.append({
            "workload": label,
            "cold_ms": round(t_cold * 1e3, 3),
            "warm_ms": round(t_warm * 1e3, 3),
            "speedup": t_cold / t_warm,
        })

    for cin, cout, hw in [(32, 64, 8), (64, 128, 8), (64, 256, 4)]:
        cfg, x, w = _scc_case(cin, cout, hw)
        run_case(f"scc {cin}->{cout}@{hw}x{hw}",
                 lambda cfg=cfg, x=x, w=w: partial(scc_warm_step, Dsxplore(cfg), x, w),
                 lambda cfg=cfg, x=x, w=w: scc_cold_step(cfg, x, w))

    rng = np.random.default_rng(1)
    # Small conv workloads: per-call compute must not drown the plan cost
    # (the cache's win is amortising plan construction, not the GEMM).
    for cin, cout, hw in [(8, 16, 6), (16, 32, 4)]:
        x = rng.standard_normal((2, cin, hw, hw)).astype(np.float32)
        w = rng.standard_normal((cout, cin, 3, 3)).astype(np.float32)
        run_case(f"conv3x3 {cin}->{cout}@{hw}x{hw}",
                 lambda x=x, w=w: partial(conv_warm_step, x, w),
                 lambda x=x, w=w: conv_cold_step(x, w))

    table = format_table(
        ["Workload (fwd+bwd)", "cold / plan rebuilt (ms)", "warm / plan cached (ms)",
         "speedup"],
        [[r["workload"], f"{r['cold_ms']:.3f}", f"{r['warm_ms']:.3f}",
          f"{r['speedup']:.1f}x"] for r in rows],
        title="Ablation — execution-plan cache vs per-call recomputation",
    )
    table += (
        f"\nWarm phases combined: {warm_cache['hits']} plan-cache hits, "
        f"{warm_cache['misses']} misses (peak {warm_cache['plans']} plans live)."
        "\nCold models the seed behaviour: window/cycle/segment tables rebuilt"
        "\nper strategy construction, einsum_path searched per contraction."
        "\nWarm is every training step after the first on repeated shapes."
    )
    return emit("ablation_plan_cache", table,
                data={"rows": rows, "warm_cache": warm_cache}), rows


def test_plan_cache_beats_recomputation():
    _, rows = report_ablation_plan_cache()
    assert all(r["speedup"] > 1.0 for r in rows), rows
    # The win must be systematic, not a single lucky row.
    assert np.median([r["speedup"] for r in rows]) > 1.1, rows


def test_plan_cache_scc_warm(benchmark):
    cfg, x, w = _scc_case(64, 128, 8)
    strat = Dsxplore(cfg)
    scc_warm_step(strat, x, w)
    benchmark(scc_warm_step, strat, x, w)


def test_plan_cache_scc_cold(benchmark):
    cfg, x, w = _scc_case(64, 128, 8)
    benchmark(scc_cold_step, cfg, x, w)


if __name__ == "__main__":
    report_ablation_plan_cache()
