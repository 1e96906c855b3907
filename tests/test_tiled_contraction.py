"""Tiled contraction kernels: the bitwise-stability contract.

PR "tiled bitwise-stable contractions" splits the dense conv2d forward /
grad-weight and the SCC input-centric pull-GEMM along their contraction
axes and combines the per-tile partials in the canonical fixed-order
pairwise tree (:func:`repro.backend.combine_partials_tree`).  The contract
under test:

- for **any** tile size and **any** worker count, ``threaded`` output is
  bitwise-equal to ``numpy`` output at the same tile size (the tree order
  depends only on the tile count, never on completion order);
- tile sizes come from the explicit schedule table with a measured-default
  fallback, and ``tile_override`` bypasses both without touching plan
  cache keys.
"""
import numpy as np
import pytest

from repro.backend import (
    combine_partials_tree,
    conv2d_plan,
    get_kernel,
    num_workers,
    scc_plan,
    schedule_table,
    tile_override,
    tile_slices,
)
from repro.backend.schedule import (
    TileSchedule,
    conv_schedule,
    current_tile_override,
    effective_gradw_tile,
    effective_k_tile,
    effective_pull_tile,
    pull_tile_for,
)
from repro.core.channel_map import SCCConfig

# The grid the acceptance criteria name: every tile size crossed with every
# worker count, each point asserted bitwise against numpy at the same tile.
TILE_SWEEP = (8, 32, 128, 0)   # 0 = the monolithic untiled contraction
WORKERS = (1, 2, 4)


# ---------------------------------------------------------------------------
# The canonical combine and the tiling primitives
# ---------------------------------------------------------------------------

def test_combine_partials_tree_is_fixed_pairwise_order():
    rng = np.random.default_rng(0)
    parts = [rng.standard_normal((3, 4)).astype(np.float32) for _ in range(5)]
    copies = [p.copy() for p in parts]
    # ((p0 + p1) + (p2 + p3)) + p4, spelled out level by level.
    expected = ((copies[0] + copies[1]) + (copies[2] + copies[3])) + copies[4]
    assert np.array_equal(combine_partials_tree(parts), expected)


def test_combine_partials_tree_differs_from_left_fold():
    # Non-associativity witness: the tree order is a *different* float
    # result than the naive left fold, which is exactly why the combine
    # order must be pinned for bitwise stability.
    vals = [5e7, 5e7, 4.0, 4.0]
    parts = [np.array([v], dtype=np.float32) for v in vals]
    left = parts[0].copy()
    for p in parts[1:]:
        left = left + p                  # ((p0 + p1) + p2) + p3 == 1e8
    tree = combine_partials_tree(parts)  # (p0 + p1) + (p2 + p3) == 1e8 + 8
    assert not np.array_equal(tree, left)
    assert tree == pytest.approx(left, rel=1e-6)


def test_combine_partials_tree_single_and_empty():
    only = np.arange(4.0)
    assert combine_partials_tree([only]) is only
    with pytest.raises(ValueError, match="at least one partial"):
        combine_partials_tree([])


def test_tile_slices_partition_in_order():
    slices = tile_slices(10, 4)
    assert slices == [slice(0, 4), slice(4, 8), slice(8, 10)]
    covered = [i for sl in slices for i in range(sl.start, sl.stop)]
    assert covered == list(range(10))
    # Untiled degenerate cases: non-positive tile or tile >= extent.
    assert tile_slices(10, 0) == [slice(0, 10)]
    assert tile_slices(10, -3) == [slice(0, 10)]
    assert tile_slices(10, 10) == [slice(0, 10)]
    assert tile_slices(10, 64) == [slice(0, 10)]


# ---------------------------------------------------------------------------
# Schedule table resolution and the tile override
# ---------------------------------------------------------------------------

def test_conv_schedule_explicit_entry_wins():
    # The bench workload class has a hand-picked table entry.
    sched = conv_schedule((8, 64, 16, 16), (128, 64, 3, 3), stride=1, groups=1)
    assert sched == TileSchedule(k_tile=16, gradw_tile=2)
    assert schedule_table()["conv2d"][(64, 128, 3, 1)] == (16, 2)


def test_conv_schedule_grouped_convs_stay_untiled():
    # Grouped convs parallelize over the group loop; K-tiling them would
    # stack overhead on an axis that is already sharded.
    sched = conv_schedule((8, 64, 16, 16), (128, 32, 3, 3), stride=1, groups=2)
    assert sched == TileSchedule(k_tile=0, gradw_tile=0)


def test_conv_schedule_fallback_targets_four_tiles():
    # Unknown dense workload: ~4 tiles of >= 16 channels each.
    sched = conv_schedule((8, 100, 16, 16), (24, 100, 5, 5), stride=1, groups=1)
    assert sched.k_tile == 25
    assert sched.gradw_tile == 2
    # Extents too small for two minimum tiles stay untiled.
    tiny = conv_schedule((2, 16, 8, 8), (24, 16, 5, 5), stride=1, groups=1)
    assert tiny.k_tile == 0 and tiny.gradw_tile == 0


def test_conv_schedule_fallback_small_batch_never_singleton_tiles():
    # Regression: the fallback used to shred n in 4..7 into ceil(n/4) = 1
    # batch tiles — n singleton einsums plus a combine tree, pure overhead.
    # The guard mirrors _default_tile: tiles never drop below the minimum
    # extent (2), and batches too small for two such tiles stay untiled.
    for n in (4, 5, 6, 7):
        sched = conv_schedule((n, 100, 16, 16), (24, 100, 5, 5),
                              stride=1, groups=1)
        assert sched.gradw_tile >= 2, n
    for n in (1, 2, 3):
        sched = conv_schedule((n, 100, 16, 16), (24, 100, 5, 5),
                              stride=1, groups=1)
        assert sched.gradw_tile == 0, n
    # Larger batches: ~4 tiles, as before.
    assert conv_schedule((16, 100, 16, 16), (24, 100, 5, 5),
                         stride=1, groups=1).gradw_tile == 4


@pytest.mark.parametrize("n", [4, 5, 7])
def test_dense_gradw_small_batch_schedule_bitwise(n):
    # The guarded small-batch schedules stay on the bitwise contract: the
    # plan-resolved gradw tile gives identical numpy/threaded grads.
    rng = np.random.default_rng(12)
    x = rng.standard_normal((n, 100, 8, 8)).astype(np.float32)
    w = rng.standard_normal((24, 100, 5, 5)).astype(np.float32)
    plan = conv2d_plan(x.shape, w.shape, 1, 1, 1, x.dtype)
    assert plan.gradw_tile == 2
    grad = rng.standard_normal(plan.out_shape).astype(np.float32)
    _, ctx_np = get_kernel("conv2d", "numpy")(plan, x, w)
    _, gw_np = get_kernel("conv2d_backward", "numpy")(plan, ctx_np, grad)
    with num_workers(3):
        _, ctx_th = get_kernel("conv2d", "threaded")(plan, x, w)
        _, gw_th = get_kernel("conv2d_backward", "threaded")(plan, ctx_th, grad)
    assert np.array_equal(gw_np, gw_th)


def test_pull_tile_table_and_fallback():
    assert pull_tile_for(64, 128) == 32          # explicit table entry
    assert schedule_table()["pull_gemm"][(64, 128)] == 32
    assert pull_tile_for(40, 96) == 24           # fallback: ceil(96 / 4)
    assert pull_tile_for(40, 24) == 0            # too small: untiled


def test_tile_override_is_scoped_and_merges():
    assert current_tile_override() is None
    assert effective_k_tile(16) == 16            # plan default wins unopposed
    with tile_override(k_tile=8):
        assert effective_k_tile(16) == 8
        assert effective_gradw_tile(2) == 2      # untouched field passes through
        with tile_override(pull_tile=4):         # nested override merges
            assert effective_k_tile(16) == 8
            assert effective_pull_tile(32) == 4
        assert effective_pull_tile(32) == 32
    assert current_tile_override() is None
    with tile_override(k_tile=0):                # 0 forces the untiled path
        assert effective_k_tile(16) == 0


# ---------------------------------------------------------------------------
# Bitwise grid: dense conv2d forward/backward, every tile x every worker
# ---------------------------------------------------------------------------

def _dense_conv_case():
    rng = np.random.default_rng(42)
    x = rng.standard_normal((2, 256, 5, 5)).astype(np.float32)
    w = rng.standard_normal((8, 256, 3, 3)).astype(np.float32)
    plan = conv2d_plan(x.shape, w.shape, 1, 1, 1, x.dtype)
    grad = rng.standard_normal((2, 8, 5, 5)).astype(np.float32)
    return plan, x, w, grad


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("tile", TILE_SWEEP)
def test_dense_conv_bitwise_across_tiles_and_workers(tile, workers):
    plan, x, w, grad = _dense_conv_case()
    with tile_override(k_tile=tile, gradw_tile=min(tile, 2) if tile else 0):
        out_np, ctx_np = get_kernel("conv2d", "numpy")(plan, x, w)
        gx_np, gw_np = get_kernel("conv2d_backward", "numpy")(plan, ctx_np, grad)
        with num_workers(workers):
            out_th, ctx_th = get_kernel("conv2d", "threaded")(plan, x, w)
            gx_th, gw_th = get_kernel("conv2d_backward", "threaded")(
                plan, ctx_th, grad)
    assert np.array_equal(out_np, out_th)
    assert np.array_equal(gx_np, gx_th)
    assert np.array_equal(gw_np, gw_th)


def test_dense_conv_default_schedule_bitwise_across_workers():
    # No override: the plan's own schedule-table tiles (the production path).
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 64, 6, 6)).astype(np.float32)
    w = rng.standard_normal((128, 64, 3, 3)).astype(np.float32)
    plan = conv2d_plan(x.shape, w.shape, 1, 1, 1, x.dtype)
    assert plan.k_tile == 16 and plan.gradw_tile == 2   # table entry resolved
    grad = rng.standard_normal((4, 128, 6, 6)).astype(np.float32)
    out_np, ctx_np = get_kernel("conv2d", "numpy")(plan, x, w)
    gx_np, gw_np = get_kernel("conv2d_backward", "numpy")(plan, ctx_np, grad)
    for workers in WORKERS:
        with num_workers(workers):
            out_th, ctx_th = get_kernel("conv2d", "threaded")(plan, x, w)
            gx_th, gw_th = get_kernel("conv2d_backward", "threaded")(
                plan, ctx_th, grad)
        assert np.array_equal(out_np, out_th), workers
        assert np.array_equal(gx_np, gx_th), workers
        assert np.array_equal(gw_np, gw_th), workers


@pytest.mark.parametrize("gradw_tile", [1, 2, 3, 0])
def test_dense_gradw_batch_tiling_bitwise(gradw_tile):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((6, 32, 5, 5)).astype(np.float32)
    w = rng.standard_normal((8, 32, 3, 3)).astype(np.float32)
    plan = conv2d_plan(x.shape, w.shape, 1, 1, 1, x.dtype)
    grad = rng.standard_normal((6, 8, 5, 5)).astype(np.float32)
    with tile_override(k_tile=0, gradw_tile=gradw_tile):
        _, ctx_np = get_kernel("conv2d", "numpy")(plan, x, w)
        _, gw_np = get_kernel("conv2d_backward", "numpy")(plan, ctx_np, grad)
        with num_workers(3):
            _, ctx_th = get_kernel("conv2d", "threaded")(plan, x, w)
            _, gw_th = get_kernel("conv2d_backward", "threaded")(
                plan, ctx_th, grad)
    assert np.array_equal(gw_np, gw_th)


def test_tiled_conv_matches_untiled_to_tolerance():
    # Different tile counts reassociate the K-reduction, so across tile
    # sizes equality is allclose, not bitwise — the bitwise contract is
    # per tile size, across backends/workers.
    plan, x, w, _ = _dense_conv_case()
    with tile_override(k_tile=0):
        ref, _ = get_kernel("conv2d", "numpy")(plan, x, w)
    for tile in (8, 32, 128):
        with tile_override(k_tile=tile):
            out, _ = get_kernel("conv2d", "numpy")(plan, x, w)
        # The atol floor covers outputs near zero whose partials cancel.
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-4)


# ---------------------------------------------------------------------------
# Bitwise grid: the SCC input-centric pull-GEMM
# ---------------------------------------------------------------------------

def _pull_case():
    cfg = SCCConfig(64, 256, 4, 0.25)
    plan = scc_plan(cfg)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, cfg.in_channels, 5, 5)).astype(np.float32)
    w = rng.standard_normal((cfg.out_channels, cfg.group_width)).astype(np.float32)
    grad = rng.standard_normal((2, cfg.out_channels, 5, 5)).astype(np.float32)
    return plan, x, w, grad


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("tile", TILE_SWEEP)
def test_pull_gemm_bitwise_across_tiles_and_workers(tile, workers):
    plan, x, w, grad = _pull_case()
    kwargs = dict(strategy="dsxplore", backward_design="input_centric")
    with tile_override(pull_tile=tile):
        gx_np, gw_np = get_kernel("scc_backward", "numpy")(
            plan, {"x": x, "w": w}, grad, **kwargs)
        with num_workers(workers):
            gx_th, gw_th = get_kernel("scc_backward", "threaded")(
                plan, {"x": x, "w": w}, grad, **kwargs)
    assert np.array_equal(gx_np, gx_th)
    assert np.array_equal(gw_np, gw_th)


def test_pull_gemm_plan_resolves_schedule_tile():
    plan = scc_plan(SCCConfig(64, 128, 4, 0.25))
    assert plan.pull_tile == 32                    # explicit table entry


# ---------------------------------------------------------------------------
# Run-to-run determinism of the pooled combine
# ---------------------------------------------------------------------------

def test_bitwise_tier_threaded_is_deterministic_across_repeats():
    plan, x, w, _ = _dense_conv_case()
    outs = []
    with tile_override(k_tile=32), num_workers(4):
        for _ in range(3):
            out, _ = get_kernel("conv2d", "threaded")(plan, x, w)
            outs.append(out)
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], outs[2])
