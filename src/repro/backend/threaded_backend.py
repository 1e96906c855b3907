"""The ``threaded`` backend: numpy kernels sharded over the shared worker pool.

Registered purely through :func:`~repro.backend.registry.register_kernel` —
no call site changes — and selected with ``backend="threaded"`` or
``REPRO_BACKEND=threaded``.  Work is split across the process-wide pool of
:mod:`repro.backend.parallel`, sized by ``REPRO_NUM_WORKERS``.

**Bitwise contract.**  Every output (and every gradient) is bit-identical
to the ``numpy`` backend on any machine.  That rules out the obvious
sharding — slicing an einsum operand changes the BLAS kernel's blocking for
some shapes, which perturbs the last ulp — so regions are only cut along
axes where each task runs the *identical* contraction calls the ``numpy``
backend runs, on the identical operands, writing disjoint outputs:

- depthwise ``conv2d`` (one input channel per group) forward, backward and
  fused forward shard over **channel blocks**: each block runs the shared
  tap kernels (:func:`~repro.backend.numpy_backend.depthwise_fwd_block` /
  ``depthwise_bwd_block``) that the ``numpy`` backend runs once over all
  channels.  Taps are elementwise multiply-adds, so slicing channels is
  exact.  Grad-weight is a reduction, and ``einsum("nchw,nchw->c")`` over
  a channel slice does not give the full call's bits; the kernels instead
  sum each channel's products with elementwise halving steps
  (``_fold_rows``), in batch chunks set by the layer's full geometry, so a
  channel's sum never depends on the block it is in;
- other grouped ``conv2d`` forward / weight-grad shard over **groups**
  (each group is already an independent contraction in the ``numpy``
  kernel: one :func:`~repro.backend.numpy_backend.im2col_gemm` forward,
  one einsum weight-grad); at ``groups == 1`` the lone contraction is
  sharded over **schedule-table tiles** of the contracted axis: each tile
  runs the identical partial (``im2col_gemm`` on the tile's channels /
  ``dense_gradw_partial``) the ``numpy`` backend computes serially, and
  the partials are combined in the canonical fixed-order pairwise tree
  (:func:`~repro.backend.plan.combine_partials_tree`) — bitwise-equal by
  construction on any worker count;
- the other ``conv2d`` data-grad tap scatters shard over **disjoint tap
  groups**: taps with equal ``(group, i % stride, j % stride)`` write the
  same strided lattice and different keys never touch the same cell, so
  groups run concurrently while each group applies its taps in the
  canonical ``(i, j)`` order.  When only one tap group exists
  (``groups == 1``, ``stride == 1``) the per-tap *contractions* are
  computed in parallel waves and applied serially in canonical order —
  accumulation order per cell is preserved either way;
- SCC kernels map the numpy backend's **per-cycle-position blocks**
  (``dsxplore_fwd_block`` / ``dsxplore_gradw_block`` and the conv-stack
  pair) over cycle positions ``p``: each owns the disjoint output
  interleave ``out[:, p::cd]``, and the numpy backend runs the same blocks
  over every ``p`` in order; the channel-stack gather and both push-style
  scatters (``np.add.at``) shard over **batch rows**, which moves bytes
  without re-associating any reduction.  The input-centric pull GEMM
  shards over output-channel tiles with the same canonical tree combine as
  dense ``conv2d``; only the channel-stack grouped GEMM stays inline (its
  contraction axis is the group width — too small to tile).

**Stats contract.**  Counters report the same *logical* quantities as the
``numpy`` backend — bit-for-bit equal totals — so the gpusim crosscheck is
backend-invariant.  Size-proportional counters (materialised bytes) are
recorded into per-worker :class:`~repro.backend.stats.KernelStats` deltas
and merged at join (shard sizes sum exactly to the numpy totals); logical
launch counts and the conflict-fraction arithmetic are recorded once by the
coordinating thread, because per-shard ``int()`` rounding of the conflict
estimate would drift from the single-call value.
"""
from __future__ import annotations

import numpy as np

from repro.backend import numpy_backend
from repro.backend.numpy_backend import (
    _count_push_scatter,
    _patch_view,
    _unpad_grad,
    apply_conv_stack_contribs,
    check_backward_design,
    conv_stack_bwd_block,
    conv_stack_fwd_block,
    dense_gradw_partial,
    depthwise_bwd_block,
    depthwise_fwd_block,
    dsxplore_fwd_block,
    dsxplore_gradw_block,
    im2col_gemm,
    pull_gemm,
    pull_gemm_partial,
)
from repro.backend.parallel import get_num_workers, parallel_map, shard_slices
from repro.backend.plan import (
    Conv2dPlan,
    EpilogueArgs,
    FusedConv2dPlan,
    SCCPlan,
    combine_partials_tree,
    planned_einsum,
)
from repro.backend.registry import register_kernel
from repro.backend.schedule import (
    effective_gradw_tile,
    effective_k_tile,
    effective_pull_tile,
    tile_slices,
)
from repro.backend.stats import KernelStats
from repro.utils.pad import pad2d


def _chunks(seq: list, size: int):
    for start in range(0, len(seq), size):
        yield seq[start : start + size]


def _parallel_tiled(partial_fn, slices, op: str) -> np.ndarray:
    """Per-tile partials on the pool, combined canonically.

    Partials come back in submission order and fold through the fixed-order
    pairwise tree — identical to the ``numpy`` backend's serial combine.
    """
    return combine_partials_tree(parallel_map(partial_fn, slices, op=op))


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

def _dense_forward(plan: Conv2dPlan, patches: np.ndarray, weight: np.ndarray):
    """Dense (groups == 1) forward: input-channel tiles on the pool."""
    k_slices = tile_slices(plan.x_shape[1], effective_k_tile(plan.k_tile))
    if len(k_slices) == 1:
        # Untiled: one contraction, inline, identical to the numpy kernel.
        return im2col_gemm(patches, weight)
    return _parallel_tiled(
        lambda sl: im2col_gemm(patches[:, sl], weight[:, sl]),
        k_slices,
        op="conv2d.fwd.ktiles",
    )


def _conv_forward(
    plan: Conv2dPlan, xp: np.ndarray, weight: np.ndarray,
    epilogue: EpilogueArgs | None = None,
) -> np.ndarray:
    """Forward of any conv geometry, sharded per the module docstring; the
    epilogue runs per output slab inside the worker that wrote it (after
    the tree combine for dense)."""
    groups = plan.groups
    if plan.depthwise:
        out = np.empty(plan.out_shape, dtype=xp.dtype)
        parallel_map(
            lambda gsl: depthwise_fwd_block(xp, weight, out, gsl, plan.stride, epilogue),
            shard_slices(groups, get_num_workers()),
            op="conv2d.fwd.depthwise",
        )
        return out
    kh, kw = plan.kernel
    patches = _patch_view(xp, kh, kw, plan.stride)
    if groups == 1:
        out = _dense_forward(plan, patches, weight)
        if epilogue is not None:
            epilogue.apply(out)
        return out
    out = np.empty(plan.out_shape, dtype=xp.dtype)
    og = plan.out_shape[1] // groups
    cg = plan.x_shape[1] // groups

    def run_group(g: int) -> None:
        gsl = slice(g * og, (g + 1) * og)
        out[:, gsl] = im2col_gemm(patches[:, g * cg : (g + 1) * cg], weight[gsl])
        if epilogue is not None:
            epilogue.apply(out[:, gsl], gsl)

    parallel_map(run_group, range(groups), op="conv2d.fwd.groups")
    return out


@register_kernel("conv2d", "threaded")
def conv2d(plan: Conv2dPlan, x: np.ndarray, weight: np.ndarray):
    xp = pad2d(x, plan.padding)
    return _conv_forward(plan, xp, weight), {"xp": xp, "w": weight}


@register_kernel("conv2d_backward", "threaded")
def conv2d_backward(
    plan: Conv2dPlan,
    ctx: dict,
    grad: np.ndarray,
    need_input_grad: bool = True,
    need_weight_grad: bool = True,
):
    xp, weight = ctx["xp"], ctx["w"]
    stride, groups = plan.stride, plan.groups
    if plan.depthwise:
        grad_x = np.empty(plan.x_shape, dtype=xp.dtype) if need_input_grad else None
        grad_w = np.empty_like(weight) if need_weight_grad else None
        parallel_map(
            lambda gsl: depthwise_bwd_block(
                xp, weight, grad, grad_x, grad_w, gsl, stride, plan.padding
            ),
            shard_slices(groups, get_num_workers()),
            op="conv2d.bwd.depthwise",
        )
        return grad_x, grad_w
    grad_w = np.zeros_like(weight) if need_weight_grad else None
    grad_xp = np.zeros_like(xp) if need_input_grad else None

    cout, _, kh, kw = weight.shape
    ho, wo = grad.shape[2], grad.shape[3]
    patches = _patch_view(xp, kh, kw, stride)
    cg = xp.shape[1] // groups
    og = cout // groups

    if need_weight_grad:
        if groups == 1:
            n_slices = tile_slices(
                grad.shape[0], effective_gradw_tile(plan.gradw_tile)
            )
            if len(n_slices) == 1:
                grad_w[:] = np.einsum(
                    "nohw,nchwij->ocij", grad, patches, optimize=plan.gradw_path
                )
            else:
                grad_w[:] = _parallel_tiled(
                    lambda sl: dense_gradw_partial(grad, patches, sl),
                    n_slices,
                    op="conv2d.gradw.ntiles",
                )
        else:

            def run_gradw(g: int) -> None:
                gsl = slice(g * og, (g + 1) * og)
                csl = slice(g * cg, (g + 1) * cg)
                grad_w[gsl] = np.einsum(
                    "nohw,nchwij->ocij", grad[:, gsl], patches[:, csl],
                    optimize=plan.gradw_path,
                )

            parallel_map(run_gradw, range(groups), op="conv2d.gradw.groups")

    if need_input_grad:
        taps = [(g, i, j) for g in range(groups) for i in range(kh) for j in range(kw)]

        def tap_contrib(tap: tuple) -> np.ndarray:
            g, i, j = tap
            gsl = slice(g * og, (g + 1) * og)
            return np.einsum(
                "nohw,oc->nchw", grad[:, gsl], weight[gsl][:, :, i, j],
                optimize=plan.gradx_path,
            )

        def tap_apply(tap: tuple, contrib: np.ndarray) -> None:
            g, i, j = tap
            grad_xp[
                :, g * cg : (g + 1) * cg,
                i : i + ho * stride : stride,
                j : j + wo * stride : stride,
            ] += contrib

        # Disjoint tap groups: equal (group, i % stride, j % stride) means
        # the same destination lattice; distinct keys never share a cell.
        tap_groups: dict[tuple, list[tuple]] = {}
        for tap in taps:
            key = (tap[0], tap[1] % stride, tap[2] % stride)
            tap_groups.setdefault(key, []).append(tap)

        if len(tap_groups) > 1:

            def run_tap_group(key: tuple) -> None:
                for tap in tap_groups[key]:  # canonical (i, j) order per cell
                    tap_apply(tap, tap_contrib(tap))

            parallel_map(run_tap_group, list(tap_groups), op="conv2d.gradx.tapgroups")
        else:
            # Single lattice (groups == 1, stride == 1): overlap the tap
            # *contractions* in worker-sized waves, then apply each wave in
            # canonical order — per-cell accumulation order is untouched.
            for wave in _chunks(taps, max(2, get_num_workers())):
                contribs = parallel_map(tap_contrib, wave, op="conv2d.gradx.taps")
                for tap, contrib in zip(wave, contribs):
                    tap_apply(tap, contrib)

    return _unpad_grad(grad_xp, plan.padding), grad_w


@register_kernel("conv2d_fused", "threaded")
def conv2d_fused(
    fplan: FusedConv2dPlan, x: np.ndarray, weight: np.ndarray, epilogue: EpilogueArgs
):
    """Inference-only conv2d + staged epilogue (see the numpy kernel): the
    contraction is tiled/sharded exactly like ``conv2d``."""
    plan = fplan.base
    return _conv_forward(plan, pad2d(x, plan.padding), weight, epilogue)


# ---------------------------------------------------------------------------
# Pooling: memory-bound single-pass kernels — reuse the numpy implementations
# so a model pinned wholesale to backend="threaded" dispatches every op.
# ---------------------------------------------------------------------------

register_kernel("maxpool2d", "threaded")(numpy_backend.maxpool2d)
register_kernel("maxpool2d_backward", "threaded")(numpy_backend.maxpool2d_backward)
register_kernel("avgpool2d", "threaded")(numpy_backend.avgpool2d)
register_kernel("avgpool2d_backward", "threaded")(numpy_backend.avgpool2d_backward)


# ---------------------------------------------------------------------------
# SCC: the three execution strategies, sharded over cycle positions / batch
# ---------------------------------------------------------------------------

def _merge_deltas(stats: KernelStats, deltas: list[KernelStats]) -> None:
    for delta in deltas:
        stats.merge(delta)


def _channel_stack_forward(plan, x, w, stats, epilogue=None):
    n = x.shape[0]
    stacked = np.empty((n,) + plan.windows.shape + x.shape[2:], dtype=x.dtype)
    shards = shard_slices(n, get_num_workers())
    deltas = [KernelStats() for _ in shards]

    def gather(i: int) -> None:
        sl = shards[i]
        np.take(x[sl], plan.windows, axis=1, out=stacked[sl])
        deltas[i].bytes_materialized += stacked[sl].nbytes

    parallel_map(gather, range(len(shards)), op="scc.channel_stack.gather")
    _merge_deltas(stats, deltas)
    stats.record(gemm_calls=1)  # one logical grouped contraction
    out = planned_einsum("noghw,og->nohw", stacked, w)
    if epilogue is not None:
        epilogue.apply(out)
    return out, {"x": x, "w": w, "stacked": stacked}


def _channel_stack_backward(plan, saved, grad_out, need_x, need_w, stats):
    w, stacked = saved["w"], saved["stacked"]
    grad_x = grad_w = None
    if need_w:
        grad_w = planned_einsum("nohw,noghw->og", grad_out, stacked)
        stats.record(gemm_calls=1)
    if need_x:
        grad_stacked = planned_einsum("nohw,og->noghw", grad_out, w)
        stats.record(bytes_materialized=grad_stacked.nbytes, gemm_calls=1)
        grad_x = np.zeros_like(saved["x"])
        shards = shard_slices(grad_out.shape[0], get_num_workers())

        def scatter(sl: slice) -> None:
            gs = grad_stacked[sl]
            idx_n = np.arange(gs.shape[0])[:, None, None]
            np.add.at(grad_x[sl], (idx_n, plan.windows[None, :, :]), gs)

        parallel_map(scatter, shards, op="scc.channel_stack.scatter")
        _count_push_scatter(plan, stats, grad_stacked.size)
    return grad_x, grad_w


def _conv_stack_forward(plan, x, w, stats, epilogue=None):
    cfg = plan.config
    cd = plan.cyclic_dist
    n, _, h, wdt = x.shape
    out = np.empty((n, cfg.out_channels, h, wdt), dtype=x.dtype)
    gathered: list = [None] * cd
    deltas = [KernelStats() for _ in range(cd)]
    parallel_map(
        lambda p: conv_stack_fwd_block(plan, x, w, out, gathered, p, deltas[p], epilogue),
        range(cd),
        op="scc.conv_stack.fwd",
    )
    _merge_deltas(stats, deltas)
    return out, {"x": x, "w": w, "gathered": gathered}


def _conv_stack_backward(plan, saved, grad_out, need_x, need_w, stats):
    cd = plan.cyclic_dist
    grad_w = np.empty_like(saved["w"]) if need_w else None
    contribs = [None] * cd if need_x else None
    deltas = [KernelStats() for _ in range(cd)]
    parallel_map(
        lambda p: conv_stack_bwd_block(
            plan, saved["w"], saved["gathered"], grad_out, grad_w, contribs, p, deltas[p]
        ),
        range(cd),
        op="scc.conv_stack.bwd",
    )
    _merge_deltas(stats, deltas)
    grad_x = None
    if need_x:
        # Windows overlap *across* cycle positions, so the contributions
        # computed in parallel above are applied in the numpy kernel's order.
        grad_x = np.zeros_like(saved["x"])
        apply_conv_stack_contribs(plan, grad_x, contribs, stats)
    return grad_x, grad_w


def _dsxplore_forward(plan, x, w, stats, epilogue=None):
    cd = plan.cyclic_dist
    n, _, h, wdt = x.shape
    out = np.empty((n, plan.config.out_channels, h, wdt), dtype=x.dtype)
    deltas = [KernelStats() for _ in range(cd)]
    parallel_map(
        lambda p: dsxplore_fwd_block(plan, x, w, out, p, deltas[p], epilogue),
        range(cd),
        op="scc.dsxplore.fwd",
    )
    _merge_deltas(stats, deltas)
    return out, {"x": x, "w": w}


def _dsxplore_backward(plan, saved, grad_out, need_x, need_w, stats, backward_design):
    check_backward_design(backward_design)
    x, w = saved["x"], saved["w"]
    cd = plan.cyclic_dist
    grad_w = None
    if need_w:
        grad_w = np.empty_like(w)
        deltas = [KernelStats() for _ in range(cd)]
        parallel_map(
            lambda p: dsxplore_gradw_block(plan, x, grad_out, grad_w, p, deltas[p]),
            range(cd),
            op="scc.dsxplore.gradw",
        )
        _merge_deltas(stats, deltas)
    grad_x = None
    if need_x:
        if backward_design == "input_centric":
            # The dense pull GEMM: output-channel tiles on the pool, combined
            # in the canonical tree order (see module docstring).
            w_full = plan.w_full(w)
            stats.record(bytes_materialized=w_full.nbytes)
            o_slices = tile_slices(
                w_full.shape[0], effective_pull_tile(plan.pull_tile)
            )
            if len(o_slices) == 1:
                grad_x = pull_gemm(grad_out, w_full)
            else:
                grad_x = _parallel_tiled(
                    lambda sl: pull_gemm_partial(grad_out, w_full, sl),
                    o_slices,
                    op="scc.dsxplore.pulltiles",
                )
            stats.record(gemm_calls=1)  # one logical pull contraction
            grad_x = grad_x.astype(x.dtype, copy=False)
        else:
            contrib = planned_einsum("nohw,og->noghw", grad_out, w)
            stats.record(bytes_materialized=contrib.nbytes, gemm_calls=1)
            grad_x = np.zeros_like(x)
            shards = shard_slices(grad_out.shape[0], get_num_workers())

            def scatter(sl: slice) -> None:
                cs = contrib[sl]
                idx_n = np.arange(cs.shape[0])[:, None, None]
                np.add.at(grad_x[sl], (idx_n, plan.windows[None, :, :]), cs)

            parallel_map(scatter, shards, op="scc.dsxplore.scatter")
            _count_push_scatter(plan, stats, contrib.size)
    return grad_x, grad_w


_FORWARD = {
    "channel_stack": _channel_stack_forward,
    "conv_stack": _conv_stack_forward,
    "dsxplore": _dsxplore_forward,
}

_BACKWARD = {
    "channel_stack": _channel_stack_backward,
    "conv_stack": _conv_stack_backward,
}


@register_kernel("scc_forward", "threaded")
def scc_forward(
    plan: SCCPlan,
    x: np.ndarray,
    w: np.ndarray,
    *,
    strategy: str = "dsxplore",
    stats: KernelStats | None = None,
    epilogue: EpilogueArgs | None = None,
):
    try:
        fwd = _FORWARD[strategy]
    except KeyError:
        raise ValueError(
            f"unknown SCC strategy {strategy!r}; available: {sorted(_FORWARD)}"
        ) from None
    return fwd(
        plan, x, w, stats if stats is not None else KernelStats(), epilogue=epilogue
    )


@register_kernel("scc_backward", "threaded")
def scc_backward(
    plan: SCCPlan,
    saved: dict,
    grad_out: np.ndarray,
    *,
    strategy: str = "dsxplore",
    backward_design: str = "input_centric",
    need_input_grad: bool = True,
    need_weight_grad: bool = True,
    stats: KernelStats | None = None,
):
    stats = stats if stats is not None else KernelStats()
    if strategy == "dsxplore":
        return _dsxplore_backward(
            plan, saved, grad_out, need_input_grad, need_weight_grad, stats,
            backward_design,
        )
    try:
        bwd = _BACKWARD[strategy]
    except KeyError:
        raise ValueError(
            f"unknown SCC strategy {strategy!r}; available: "
            f"{sorted(_BACKWARD) + ['dsxplore']}"
        ) from None
    return bwd(plan, saved, grad_out, need_input_grad, need_weight_grad, stats)
