"""Per-workload tile schedules.

This module is the repo's analog of topi's hand-written per-workload
schedule tables (``gen_schedule.py`` in topi-intel): a small explicit table
of tile sizes for the workload classes the benchmarks exercise, with a
measured-default heuristic for everything else.  The tables are the single
source of tiles; there is no per-host schedule search.  The tiles drive the
**tiled contraction kernels** of :mod:`repro.backend.numpy_backend` /
:mod:`repro.backend.threaded_backend`:

- ``conv2d`` forward at ``groups == 1`` tiles the **input-channel** axis,
- ``conv2d`` grad-weight at ``groups == 1`` tiles the **batch** axis,
- the SCC input-centric pull-GEMM tiles the contracted **output-channel**
  axis.

The canonical result of a tiled contraction is defined as the fixed-order
pairwise-tree combination (:func:`repro.backend.plan.combine_partials_tree`)
of the per-tile partial products.  Both the ``numpy`` backend (serial tiles)
and the ``threaded`` backend (tiles on the worker pool) compute exactly this
order, so results are bitwise-identical on any machine and any
``REPRO_NUM_WORKERS`` — which is what lets a *lone* GEMM spread over
workers without breaking the bitwise contract.
"""
from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator

__all__ = [
    "TileSchedule",
    "conv_schedule",
    "pull_tile_for",
    "tile_slices",
    "tile_override",
    "current_tile_override",
    "schedule_table",
]


# ---------------------------------------------------------------------------
# Tile schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TileSchedule:
    """Tile sizes of one conv2d workload class (0 = untiled)."""

    k_tile: int = 0       # forward: input-channel tile (groups == 1 only)
    gradw_tile: int = 0   # grad-weight: batch tile (groups == 1 only)


def _default_tile(extent: int, min_tile: int = 16, target_tiles: int = 4) -> int:
    """Measured-default fallback: aim for ``target_tiles`` tiles of at least
    ``min_tile``; extents too small to yield two ``min_tile`` tiles stay
    untiled (tiling overhead would dominate the tiny contraction)."""
    if extent < 2 * min_tile:
        return 0
    return max(min_tile, -(-extent // target_tiles))


def _default_gradw_tile(n: int, min_tile: int = 2, target_tiles: int = 4) -> int:
    """Batch-tile fallback of the dense grad-weight, with the same
    minimum-extent guard shape as :func:`_default_tile`: a batch too small
    to yield two ``min_tile`` tiles stays untiled, and the tile never drops
    below ``min_tile`` — ``ceil(n/4)`` alone shredded batch 4 into four
    singleton tiles whose per-tile contraction + combine overhead dominates the
    tiny contraction it was meant to parallelise."""
    if n < 2 * min_tile:
        return 0
    return max(min_tile, -(-n // target_tiles))


# Explicit per-workload entries, topi-style: the workload classes the
# benchmarks (and the serving model zoo at their native widths) hit, keyed
# by (cin, cout, kernel, stride).  Dense (groups == 1) only — grouped convs
# parallelize over groups and are never K-tiled.  Values aim at ~4 tiles:
# enough tiles for a 2-4 worker pool to share (chosen, not measured, to
# fill the lanes), while each per-tile contraction keeps a large
# enough contracted extent to run at BLAS efficiency (8+ tiles cut the
# per-tile K so fine that the serial tiled path costs 2-3x the untiled one
# in bench_tiled_gemm's measured tile sweep).
CONV_SCHEDULES: dict[tuple[int, int, int, int], TileSchedule] = {
    # bench_tiled_gemm dense workload
    (64, 128, 3, 1): TileSchedule(k_tile=16, gradw_tile=2),
    (128, 128, 3, 1): TileSchedule(k_tile=32, gradw_tile=2),
    # VGG/ResNet trunk widths (3x3, stride 1)
    (128, 256, 3, 1): TileSchedule(k_tile=32, gradw_tile=2),
    (256, 256, 3, 1): TileSchedule(k_tile=64, gradw_tile=2),
    (256, 512, 3, 1): TileSchedule(k_tile=64, gradw_tile=2),
    (512, 512, 3, 1): TileSchedule(k_tile=128, gradw_tile=2),
}

# SCC input-centric pull-GEMM: contracted output-channel tile, keyed by
# (cin, cout).
PULL_SCHEDULES: dict[tuple[int, int], int] = {
    (64, 128): 32,    # the bench SCC configuration
    (128, 256): 64,
    (256, 512): 128,
}


def conv_schedule(
    x_shape: tuple, w_shape: tuple, stride: int, groups: int
) -> TileSchedule:
    """Resolve the tile schedule of one conv2d workload.

    Explicit table entries win; everything else gets the measured-default
    heuristic.  Grouped convolutions are never tiled — their parallelism
    axis is the group loop.
    """
    if groups != 1:
        return TileSchedule()
    n, cin = x_shape[0], x_shape[1]
    cout, _, kh, _ = w_shape
    entry = CONV_SCHEDULES.get((cin, cout, kh, stride))
    if entry is None:
        entry = TileSchedule(
            k_tile=_default_tile(cin),
            gradw_tile=_default_gradw_tile(n),
        )
    return entry


def pull_tile_for(cin: int, cout: int) -> int:
    """The pull-GEMM's contracted output-channel tile for one SCC config:
    the explicit table entry, else the measured-default heuristic."""
    tile = PULL_SCHEDULES.get((cin, cout))
    if tile is None:
        tile = _default_tile(cout)
    return tile


def schedule_table() -> dict:
    """The explicit schedule entries (for docs / bench introspection)."""
    return {
        "conv2d": {k: (v.k_tile, v.gradw_tile) for k, v in CONV_SCHEDULES.items()},
        "pull_gemm": dict(PULL_SCHEDULES),
    }


def tile_slices(extent: int, tile: int) -> list[slice]:
    """Partition ``range(extent)`` into fixed-order contiguous tiles.

    ``tile <= 0`` or ``tile >= extent`` yields the single full slice — the
    untiled (monolithic-contraction) case.
    """
    if tile <= 0 or tile >= extent:
        return [slice(0, extent)]
    return [slice(s, min(s + tile, extent)) for s in range(0, extent, tile)]


# ---------------------------------------------------------------------------
# Tile overrides (tests / the bench_tiled_gemm sweep)
# ---------------------------------------------------------------------------

_STATE = threading.local()


@dataclass(frozen=True)
class _TileOverride:
    k_tile: int | None = None
    gradw_tile: int | None = None
    pull_tile: int | None = None


def current_tile_override() -> "_TileOverride | None":
    return getattr(_STATE, "tiles", None)


@contextmanager
def tile_override(
    k_tile: int | None = None,
    gradw_tile: int | None = None,
    pull_tile: int | None = None,
) -> Iterator[None]:
    """Thread-locally force tile sizes, bypassing the schedule table.

    Tiles change only the *partitioning* of a contraction, never the plan
    geometry, so overriding is safe against the plan cache: kernels resolve
    the effective tile at call time (override first, then the tile the plan
    resolved from the schedule table at build).  Pass ``0`` to force the
    monolithic untiled contraction.
    """
    previous = current_tile_override()
    base = previous or _TileOverride()
    _STATE.tiles = replace(
        base,
        **{
            k: v
            for k, v in (
                ("k_tile", k_tile),
                ("gradw_tile", gradw_tile),
                ("pull_tile", pull_tile),
            )
            if v is not None
        },
    )
    try:
        yield
    finally:
        _STATE.tiles = previous


def effective_k_tile(plan_tile: int) -> int:
    ov = current_tile_override()
    return ov.k_tile if ov is not None and ov.k_tile is not None else plan_tile


def effective_gradw_tile(plan_tile: int) -> int:
    ov = current_tile_override()
    return ov.gradw_tile if ov is not None and ov.gradw_tile is not None else plan_tile


def effective_pull_tile(plan_tile: int) -> int:
    ov = current_tile_override()
    return ov.pull_tile if ov is not None and ov.pull_tile is not None else plan_tile
