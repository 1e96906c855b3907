"""Ablation (beyond the paper's figures) — the execution-plan cache.

Training repeats the same layer shapes every step, yet the seed code
rebuilt its execution machinery per call: window/cycle/segment index tables
on every SCC layer construction and an ``np.einsum_path`` search inside
every ``optimize=True`` contraction.  The :mod:`repro.backend` plan cache
keys all of that on a Workload descriptor (shapes, cg/co,
stride/padding/groups, dtype) and reuses it.

This bench measures exactly that contrast on real kernels: *cold* execution
(plan cache cleared and the plan rebuilt before every call — the
per-call-recomputation model) vs *warm* execution (plans reused, as every
training step after the first).  Cold and warm calls alternate in one
loop, switching which runs first on each repeat, so drift of the host
lands on both sides; each side reports its median.  The two kinds of row
reuse plans differently:

- a conv looks its plan up in the cache on every call, so its warm calls
  count one hit each;
- an SCC layer builds its ``SCCPlan`` once and holds it, so warm calls on
  the held plan make no cache lookup at all (0 hits) and the cold/warm
  ratio measures plan construction.

Warm cache counters come from a separate, untimed warm pass.
"""
import time
from functools import partial

import numpy as np

from common import emit, full_mode, scc_step
from repro.backend import (
    clear_plan_cache,
    conv2d_plan,
    get_kernel,
    plan_cache_stats,
    scc_plan,
)
from repro.core.channel_map import SCCConfig
from repro.utils import format_table


def _scc_case(cin, cout, hw, batch=8, cg=2, co=0.5, seed=0):
    cfg = SCCConfig(cin, cout, cg, co)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, cin, hw, hw)).astype(np.float32)
    w = rng.standard_normal((cout, cfg.group_width)).astype(np.float32)
    g = rng.standard_normal((batch, cout, hw, hw)).astype(np.float32)
    return cfg, x, w, g


def scc_cold_step(cfg, x, w, g):
    """Per-call recomputation: index tables + contraction paths rebuilt."""
    clear_plan_cache()
    scc_step(scc_plan(cfg), x, w, g)


def scc_warm_step(plan, x, w, g):
    """The plan held by the caller, as an SCC layer holds it."""
    scc_step(plan, x, w, g)


def conv_cold_step(x, w):
    clear_plan_cache()
    plan = conv2d_plan(x.shape, w.shape, 1, 1, 1, x.dtype)
    out, ctx = get_kernel("conv2d")(plan, x, w)
    get_kernel("conv2d_backward")(plan, ctx, out)


def conv_warm_step(x, w):
    plan = conv2d_plan(x.shape, w.shape, 1, 1, 1, x.dtype)
    out, ctx = get_kernel("conv2d")(plan, x, w)
    get_kernel("conv2d_backward")(plan, ctx, out)


def alternating_medians(cold_fn, warm_fn, repeats):
    """Median seconds of ``cold_fn`` and of ``warm_fn``, timed alternately
    in one loop; the side that runs first switches on every repeat."""
    samples = ([], [])
    for i in range(repeats):
        order = (0, 1) if i % 2 else (1, 0)
        for side in order:
            fn = (cold_fn, warm_fn)[side]
            start = time.perf_counter()
            fn()
            samples[side].append(time.perf_counter() - start)
    return float(np.median(samples[0])), float(np.median(samples[1]))


def report_ablation_plan_cache():
    repeats = 60 if full_mode() else 25
    rows = []
    # Warm-pass cache counters, aggregated across workloads.
    warm_cache = {"plans": 0, "hits": 0, "misses": 0}

    def run_case(label, make_warm, cold_fn):
        # Untimed warm pass from an empty cache, so "peak plans live" counts
        # only this workload's plans; the warm step is built after the clear
        # so its plans are counted too.
        clear_plan_cache()
        warm_fn = make_warm()
        warm_fn()   # populate the cache once
        base = plan_cache_stats()
        for _ in range(repeats):
            warm_fn()
        after = plan_cache_stats()
        hits = after["hits"] - base["hits"]
        warm_cache["plans"] = max(warm_cache["plans"], after["size"])
        warm_cache["hits"] += hits
        warm_cache["misses"] += after["misses"] - base["misses"]
        # Timed pass, after one untimed cold call (the warm side is warm
        # already).  A cold call leaves the plans it rebuilt in the cache,
        # so the warm conv call after it still hits.
        cold_fn()
        t_cold, t_warm = alternating_medians(cold_fn, warm_fn, repeats)
        rows.append({
            "workload": label,
            "cold_ms": round(t_cold * 1e3, 3),
            "warm_ms": round(t_warm * 1e3, 3),
            "speedup": t_cold / t_warm,
            "warm_hits": hits,
        })

    for cin, cout, hw in [(32, 64, 8), (64, 128, 8), (64, 256, 4)]:
        cfg, x, w, g = _scc_case(cin, cout, hw)
        run_case(f"scc {cin}->{cout}@{hw}x{hw}, plan held",
                 lambda cfg=cfg, x=x, w=w, g=g:
                     partial(scc_warm_step, scc_plan(cfg), x, w, g),
                 partial(scc_cold_step, cfg, x, w, g))

    rng = np.random.default_rng(1)
    # Small conv workloads: per-call compute must not drown the plan cost
    # (the cache's win is amortising plan construction, not the GEMM).
    for cin, cout, hw in [(8, 16, 6), (16, 32, 4)]:
        x = rng.standard_normal((2, cin, hw, hw)).astype(np.float32)
        w = rng.standard_normal((cout, cin, 3, 3)).astype(np.float32)
        run_case(f"conv3x3 {cin}->{cout}@{hw}x{hw}, plan cached",
                 lambda x=x, w=w: partial(conv_warm_step, x, w),
                 partial(conv_cold_step, x, w))

    table = format_table(
        ["Workload (fwd+bwd)", "cold / plan rebuilt (ms)", "warm / plan reused (ms)",
         "speedup", "warm cache hits"],
        [[r["workload"], f"{r['cold_ms']:.3f}", f"{r['warm_ms']:.3f}",
          f"{r['speedup']:.1f}x", str(r["warm_hits"])] for r in rows],
        title="Ablation — execution-plan reuse vs per-call recomputation",
    )
    table += (
        f"\nUntimed warm passes ({repeats} calls per workload): "
        f"{warm_cache['hits']} plan-cache hits,"
        f"\n{warm_cache['misses']} misses (peak {warm_cache['plans']} plans live)."
        f"\nTimes are medians of {repeats} cold and {repeats} warm calls, alternated"
        "\nin one loop with the first side switching on every repeat."
        "\nCold models the seed behaviour: window/cycle/segment tables rebuilt"
        "\nper layer construction, einsum_path searched per contraction."
        "\nWarm is every training step after the first on repeated shapes."
        "\nConv rows look their plan up in the cache on every call.  SCC rows"
        "\nrun on a plan the caller holds, as an SCC layer does, and make no"
        "\ncache lookup when warm, so their ratio measures plan construction,"
        "\nnot cache hits."
    )
    return emit("ablation_plan_cache", table,
                data={"rows": rows, "warm_cache": warm_cache}), rows


def test_plan_cache_beats_recomputation():
    _, rows = report_ablation_plan_cache()
    assert all(r["speedup"] > 1.0 for r in rows), rows
    # The win must be systematic, not a single lucky row.
    assert np.median([r["speedup"] for r in rows]) > 1.1, rows


def test_plan_cache_scc_warm(benchmark):
    cfg, x, w, g = _scc_case(64, 128, 8)
    plan = scc_plan(cfg)
    scc_warm_step(plan, x, w, g)
    benchmark(scc_warm_step, plan, x, w, g)


def test_plan_cache_scc_cold(benchmark):
    benchmark(scc_cold_step, *_scc_case(64, 128, 8))


if __name__ == "__main__":
    report_ablation_plan_cache()
