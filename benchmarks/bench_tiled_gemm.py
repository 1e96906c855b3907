"""Tiled bitwise-stable contractions (beyond the paper's figures).

The dense ``groups == 1`` conv2d forward and the dsxplore pull-GEMM used to
run as single untiled GEMMs — zero parallel coverage in the ``threaded``
backend.  The schedule-table tiling (:mod:`repro.backend.schedule`) cuts the
contraction axis into tiles whose partials are combined through a canonical
fixed-order pairwise tree, so the result is bit-identical on any worker
count *and* the per-tile partials parallelise.  This report quantifies every
side of that trade:

1. **Tile sweep** — for each tile size (0 = untiled full-K): the numpy
   serial wall time.  Bitwise equality against numpy running the identical
   schedule is asserted at every (tile, workers) grid point first.
2. **Canonical-order overhead** — tiled-serial vs the untiled GEMM's
   numpy wall time: what the deterministic reduction order costs when no
   pool exists to pay it back.
3. **Fused epilogue** — the staged conv -> bias -> BN -> activation
   epilogue applied per output tile vs the same ops as separate
   materialised passes: bitwise equality asserted, measured speedup
   reported.
"""
import numpy as np

from common import emit, full_mode
from repro.backend import (
    EpilogueArgs,
    KernelStats,
    clear_plan_cache,
    conv2d_plan,
    get_kernel,
    get_num_workers,
    scc_plan,
    set_num_workers,
    tile_override,
    tile_slices,
)
from repro.core.channel_map import SCCConfig
from repro.utils import format_table, seed_all, time_callable

TILE_SWEEP = (8, 32, 128, 0)     # 0 = untiled full-K
BITWISE_WORKERS = (1, 2, 4)


class DenseConvForward:
    """Dense conv2d forward: the k-tiled lone GEMM."""

    name = "conv-dense-fwd"

    def __init__(self, n, cin, hw, cout):
        rng = np.random.default_rng(27)
        self.x = rng.standard_normal((n, cin, hw, hw)).astype(np.float32)
        self.w = rng.standard_normal((cout, cin, 3, 3)).astype(np.float32)
        self.plan = conv2d_plan(self.x.shape, self.w.shape, 1, 1, 1, self.x.dtype)
        self.axis_extent = cin

    def run(self, backend: str) -> np.ndarray:
        out, _ = get_kernel("conv2d", backend)(self.plan, self.x, self.w)
        return out


class PullGemm:
    """dsxplore input-centric pull-GEMM: the o-tiled lone GEMM."""

    name = "pull-gemm"

    def __init__(self, n, hw, cfg: SCCConfig):
        self.plan = scc_plan(cfg)
        rng = np.random.default_rng(28)
        self.x = rng.standard_normal(
            (n, cfg.in_channels, hw, hw)
        ).astype(np.float32)
        self.w = rng.standard_normal(
            (cfg.out_channels, cfg.group_width)
        ).astype(np.float32)
        self.grad = np.random.default_rng(29).standard_normal(
            (n, cfg.out_channels, hw, hw)
        ).astype(np.float32)
        self.axis_extent = cfg.out_channels

    def run(self, backend: str) -> np.ndarray:
        grad_x, _ = get_kernel("scc_backward", backend)(
            self.plan, {"x": self.x, "w": self.w}, self.grad,
            strategy="dsxplore", backward_design="input_centric",
            need_weight_grad=False, stats=KernelStats(),
        )
        return grad_x


def _tile_sweep(workload, repeats: int):
    rows = []
    for tile in TILE_SWEEP:
        with tile_override(k_tile=tile, gradw_tile=tile, pull_tile=tile):
            tiles = len(tile_slices(workload.axis_extent, tile))
            ref = workload.run("numpy")
            for workers in BITWISE_WORKERS:
                set_num_workers(workers)
                got = workload.run("threaded")
                assert np.array_equal(ref, got), (
                    f"{workload.name} diverged from numpy at tile={tile}, "
                    f"workers={workers}"
                )
            t_numpy = time_callable(
                lambda: workload.run("numpy"), repeats=repeats, warmup=1
            ).median
            rows.append({
                "workload": workload.name,
                "tile": tile,
                "tiles": tiles,
                "numpy_ms": round(t_numpy * 1e3, 3),
                "bitwise_workers": list(BITWISE_WORKERS),
            })
    return rows


def _untiled_overhead(workload, repeats: int) -> dict:
    """Serial cost of the canonical tiled order vs the untiled GEMM."""
    t_tiled = time_callable(
        lambda: workload.run("numpy"), repeats=repeats, warmup=1
    ).median
    with tile_override(k_tile=0, gradw_tile=0, pull_tile=0):
        t_untiled = time_callable(
            lambda: workload.run("numpy"), repeats=repeats, warmup=1
        ).median
    return {
        "workload": workload.name,
        "tiled_ms": round(t_tiled * 1e3, 3),
        "untiled_ms": round(t_untiled * 1e3, 3),
        "overhead_ratio": round(t_tiled / t_untiled, 3),
    }


def _fused_epilogue(repeats: int) -> dict:
    """Fused conv->bias->BN->relu vs the same ops as separate passes."""
    from repro.backend import conv2d_fused_plan, EpilogueSpec

    n, cin, hw, cout = (8, 64, 32, 128) if full_mode() else (6, 64, 24, 128)
    rng = np.random.default_rng(30)
    x = rng.standard_normal((n, cin, hw, hw)).astype(np.float32)
    w = rng.standard_normal((cout, cin, 3, 3)).astype(np.float32)
    bias = rng.standard_normal((1, cout, 1, 1)).astype(np.float32)
    mean = rng.standard_normal((1, cout, 1, 1)).astype(np.float32)
    scale = (
        rng.standard_normal((1, cout, 1, 1)).astype(np.float32) * 0.1 + 1.0
    )
    beta = rng.standard_normal((1, cout, 1, 1)).astype(np.float32)
    spec = EpilogueSpec(bias=True, affine=True, activation="relu")
    fplan = conv2d_fused_plan(x.shape, w.shape, 1, 1, 1, x.dtype, spec)
    epilogue = EpilogueArgs(
        bias=bias, mean=mean, scale=scale, beta=beta, activation="relu"
    )
    plan = conv2d_plan(x.shape, w.shape, 1, 1, 1, x.dtype)
    fused_kernel = get_kernel("conv2d_fused", "numpy")
    conv_kernel = get_kernel("conv2d", "numpy")

    def unfused() -> np.ndarray:
        out, _ = conv_kernel(plan, x, w)
        # The pre-fusion module path: each stage materialises a new array,
        # same op sequence as the epilogue replays in place.
        out = out + bias
        out = (out - mean) * scale + beta
        return out * (out > 0)

    def fused() -> np.ndarray:
        return fused_kernel(fplan, x, w, epilogue)

    ref, got = unfused(), fused()
    assert np.array_equal(ref, got), "fused epilogue diverged from staged ops"
    t_unfused = time_callable(unfused, repeats=repeats, warmup=1).median
    t_fused = time_callable(fused, repeats=repeats, warmup=1).median
    return {
        "stages": spec.stages,
        "unfused_ms": round(t_unfused * 1e3, 3),
        "fused_ms": round(t_fused * 1e3, 3),
        "speedup": round(t_unfused / t_fused, 3),
        "bitwise_equal": True,
    }


def report_tiled_gemm():
    seed_all(0)
    repeats = 5 if full_mode() else 3
    n = 8 if full_mode() else 6
    hw = 32 if full_mode() else 24
    old_workers = get_num_workers()
    workloads = [
        DenseConvForward(n, 64, hw, 128),
        PullGemm(n, hw, SCCConfig(64, 128, 4, 0.25)),
    ]
    try:
        clear_plan_cache()
        for workload in workloads:
            workload.run("numpy")  # warm plans
        sweep_rows = []
        for workload in workloads:
            sweep_rows.extend(_tile_sweep(workload, repeats))
        overhead = [_untiled_overhead(w, repeats) for w in workloads]
        fused = _fused_epilogue(repeats)
    finally:
        set_num_workers(old_workers)

    table = format_table(
        ["Workload", "tile", "tiles", "numpy (ms)"],
        [[r["workload"], str(r["tile"]), str(r["tiles"]),
          f"{r['numpy_ms']:.2f}"]
         for r in sweep_rows],
        title="Tile sweep: canonical tiled contractions, bitwise-equal to "
              "numpy at workers {1,2,4} (asserted), serial numpy wall time",
    )
    table += "\n\n" + format_table(
        ["Workload", "tiled serial (ms)", "untiled (ms)", "overhead ratio"],
        [[r["workload"], f"{r['tiled_ms']:.2f}", f"{r['untiled_ms']:.2f}",
          f"{r['overhead_ratio']:.2f}"] for r in overhead],
        title="Canonical-order serial overhead (schedule-table tile vs "
              "untiled GEMM, single-threaded numpy)",
    )
    table += "\n\n" + format_table(
        ["stages", "unfused (ms)", "fused (ms)", "speedup"],
        [[str(fused["stages"]), f"{fused['unfused_ms']:.2f}",
          f"{fused['fused_ms']:.2f}", f"{fused['speedup']:.2f}"]],
        title="Fused conv->bias->BN->relu epilogue vs separate materialised "
              "passes (bitwise-equal, asserted)",
    )
    data = {
        "tile_sweep": sweep_rows,
        "untiled_overhead": overhead,
        "fused_epilogue": fused,
    }
    return emit("tiled_gemm", table, data=data), data


def test_tiled_gemm_gate():
    _, data = report_tiled_gemm()
    assert data["fused_epilogue"]["bitwise_equal"]
    # Every tile size of every workload passed the bitwise worker grid.
    assert len(data["tile_sweep"]) == 2 * len(TILE_SWEEP)
    # The canonical order's serial cost stays bounded: compute-rich dense
    # conv pays ~1.2x, while the memory-bound pull-GEMM pays up to ~2x
    # (its partials are full output-sized buffers, so tiling roughly
    # doubles the write traffic).
    for row in data["untiled_overhead"]:
        assert row["overhead_ratio"] < 2.5, row


if __name__ == "__main__":
    report_tiled_gemm()
