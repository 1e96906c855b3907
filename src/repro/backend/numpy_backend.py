"""The ``numpy`` backend: vectorised GEMM / einsum / ``as_strided`` fast paths.

These are the "cuDNN primitives" of the reproduction.  Input patch
matrices are zero-copy strided *views*.  Every non-depthwise conv forward
copies its patch view into im2col columns and runs one batched
``np.matmul``; see :func:`im2col_gemm`.  The conv backward reduces
over the views with einsum calls, the data-grad scatter runs as ``KH*KW``
strided accumulations, and every einsum fetches its ``np.einsum_path``
plan from the execution-plan cache instead of re-searching per call.

Depthwise convs (one input channel per group) run a few elementwise array
calls per kernel tap instead of one einsum call per channel; see the
comment above :func:`depthwise_fwd_block`.

SCC kernels implement all three of the paper's execution strategies behind
one registered op pair (``scc_forward`` / ``scc_backward``) parameterised by
``strategy``; the table that maps each strategy to the paper heads the SCC
section below.  The DSXplore strategy's segment GEMMs and input-centric pull
GEMM are direct batched ``np.matmul`` calls on the zero-copy views; see the
comment above :func:`segment_fwd_gemm`.
"""
from __future__ import annotations

import numpy as np

from repro.backend.plan import (
    Conv2dPlan,
    EpilogueArgs,
    Pool2dPlan,
    SCCPlan,
    planned_einsum,
)
from repro.backend.registry import register_kernel
from repro.backend.stats import KernelStats, scc_conflict_fraction
from repro.utils.pad import pad2d


def _patch_view(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Zero-copy (N, C, Ho, Wo, KH, KW) sliding-window view of padded input."""
    n, c, h, w = x.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    if ho <= 0 or wo <= 0:
        raise ValueError(
            f"window of {kh}x{kw} (stride {stride}) produces empty output on "
            f"{h}x{w} input — input too small for this layer stack"
        )
    sn, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, ho, wo, kh, kw),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

def im2col_gemm(patches: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """The conv forward contraction ``weight (O, C, KH, KW) . patches``
    as one im2col GEMM.

    The ``(N, C, Ho, Wo, KH, KW)`` patch view is copied into ``(N,
    C*KH*KW, Ho*Wo)`` columns (a view for 1x1 stride-1 convs), and one
    batched ``np.matmul`` against the ``(O, C*KH*KW)`` weight rows gives
    the ``(N, O, Ho, Wo)`` output, already contiguous NCHW.  The batched
    ``matmul`` runs one GEMM per batch row, so a row's bits do not depend
    on the batch size.
    """
    n, c, ho, wo, kh, kw = patches.shape
    cols = patches.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, ho * wo)
    rows = weight.reshape(weight.shape[0], -1)
    return np.matmul(rows, cols).reshape(n, -1, ho, wo)


# Depthwise (one input channel per group) convs skip the per-group einsum
# loop.  Each of the KH*KW taps is one elementwise multiply-add over all
# groups at once, in channels-last layout so the innermost loop runs over
# (Wo, channels) rather than over one short output row.
#
# The input is staged once per call (:func:`stage_depthwise`): one copy
# into a zero-bordered channels-last buffer that is also split into
# ``stride x stride`` phases (space-to-depth), so padded row ``a + s*u``
# sits at phase row ``u`` of phase ``a``.  Every tap then reads a
# unit-stride window of one phase (:func:`_tap`), whose rows are runs of
# ``Wo * channels`` contiguous values at any stride.  The staged buffer is
# the backward context: grad-weight reads the same windows, and grad-input
# accumulates into a phase-split buffer of the same layout (over runs of
# whole phase rows on wide maps, :func:`_run`), un-split by its final
# transposing copy (:func:`unstage_depthwise`).
#
# The batch is walked in chunks of about ``_DW_CHUNK_BYTES`` of output so a
# chunk's buffers stay in cache.  Grad-weight multiplies each tap's window
# by the gradient and reduces the products per channel with BLAS matvecs:
# two levels per chunk (:func:`_row_group`), then one across the chunks.
# The chunks and the matvec shapes depend only on the layer's geometry, so
# the grad-weight bits are the same from run to run, and the two-level
# split keeps float32 within 2e-5 of float64 at batch 32, where one matvec
# over all rows is not.  Forward and grad-input equal ``reference`` bit
# for bit (the same operations in the same order per element).

_DW_CHUNK_BYTES = 1 << 18
_GW_ROW_WIDTH = 256


def _channels_last(a: np.ndarray) -> np.ndarray:
    """Contiguous (N, H, W, C) copy of an NCHW array."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


def _phases(stride: int, padding: int):
    """Per phase ``a`` of one padded axis: ``(u0, h0)``, the first phase
    row holding an input cell and that cell's unpadded index."""
    for a in range(stride):
        u0 = -((a - padding) // stride)
        yield a, u0, a + stride * u0 - padding


def stage_depthwise(x: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Zero-bordered channels-last copy of NCHW ``x``, phase-split.

    Returns the ``(N, s, s, Hq, Wq, C)`` buffer whose ``[:, a, b, u, v]``
    is padded cell ``(a + s*u, b + s*v)``, with ``Hq = ceil(Hp / s)``.
    At stride 1 this is the padded input in NHWC order.
    """
    n, c, h, w = x.shape
    s = stride
    hq = -(-(h + 2 * padding) // s)
    wq = -(-(w + 2 * padding) // s)
    xs = np.zeros((n, s, s, hq, wq, c), dtype=x.dtype)
    for a, u0, h0 in _phases(s, padding):
        for b, v0, w0 in _phases(s, padding):
            src = x[:, :, h0::s, w0::s]
            dst = xs[:, a, b, u0 : u0 + src.shape[2], v0 : v0 + src.shape[3]]
            dst[...] = src.transpose(0, 2, 3, 1)
    return xs


def unstage_depthwise(
    gs: np.ndarray, out: np.ndarray, stride: int, padding: int
) -> None:
    """Write the interior of phase-split ``gs`` back to NCHW ``out``: the
    inverse of :func:`stage_depthwise`, dropping the zero border."""
    s = stride
    h, w = out.shape[2], out.shape[3]
    for a, u0, h0 in _phases(s, padding):
        for b, v0, w0 in _phases(s, padding):
            dst = out[:, :, h0::s, w0::s]
            src = gs[:, a, b, u0 : u0 + dst.shape[2], v0 : v0 + dst.shape[3]]
            dst[...] = src.transpose(0, 3, 1, 2)


def _tap(a: np.ndarray, i: int, j: int, ho: int, wo: int, stride: int) -> np.ndarray:
    """The (N, Ho, Wo, ...) unit-stride window that tap ``(i, j)`` reads of
    phase-split ``a``."""
    u, v = i // stride, j // stride
    return a[:, i % stride, j % stride, u : u + ho, v : v + wo]


def _run(a: np.ndarray, i: int, j: int, ho: int, wq: int, stride: int) -> np.ndarray:
    """The (N, Ho, Wq, ...) run of ``Ho`` whole phase rows that starts at
    tap ``(i, j)``'s first cell of phase-split ``a``: one contiguous block
    per image, whose last ``Wq - Wo`` cells per row wrap past the tap's
    window (a spare row after the last phase row keeps them in ``a``)."""
    phase = a[:, i % stride, j % stride]
    flat = phase.reshape((phase.shape[0], -1) + phase.shape[3:])
    start = (i // stride) * wq + j // stride
    run = flat[:, start : start + ho * wq]
    return run.reshape((phase.shape[0], ho, wq) + phase.shape[3:])


def _grad_runs(wo: int, wq: int) -> bool:
    """Whether grad-input accumulates over runs of whole phase rows
    (:func:`_run`): when they wrap through at most one cell in five.  The
    zero gradient of the wrapped cells changes no sum.  Contiguous runs cut
    grad-input by about a quarter to a third at batch 32 on 8x8 and larger
    maps; on 4x4 and 2x2 maps the wrapped cells cost more than they save."""
    return 4 * (wq - wo) <= wo


def _tap_weights(weight: np.ndarray, groups: int, width: int) -> np.ndarray:
    """(KH, KW, width, groups, multiplier) copy of the weights, repeated
    along a row of ``width`` cells so each tap multiplies as one flat
    loop."""
    cout, _, kh, kw = weight.shape
    wb = weight.reshape(groups, cout // groups, kh, kw).transpose(2, 3, 0, 1)
    return np.ascontiguousarray(np.broadcast_to(wb[:, :, None], (kh, kw, width) + wb.shape[2:]))


def tile_slices(extent: int, tile: int) -> list[slice]:
    """Partition ``range(extent)`` into fixed-order contiguous tiles of
    ``tile`` (the whole range when ``tile <= 0`` or ``tile >= extent``)."""
    if tile <= 0 or tile >= extent:
        return [slice(0, extent)]
    return [slice(s, min(s + tile, extent)) for s in range(0, extent, tile)]


def _batch_chunks(out_shape: tuple, itemsize: int) -> list[slice]:
    """Batch chunks of about ``_DW_CHUNK_BYTES`` of (all-channel) output."""
    n, cout, ho, wo = out_shape
    return tile_slices(n, max(1, _DW_CHUNK_BYTES // (cout * ho * wo * itemsize)))


def _row_group(m: int, c: int) -> int:
    """Rows per group when grad-weight reduces an ``(M, C)`` block of
    products as two BLAS matvecs: the largest divisor ``k`` of M that keeps
    ``k * C`` within ``_GW_ROW_WIDTH``.

    The block is regrouped as ``(M / k, k * C)``; one matvec sums ``M / k``
    values per partial and a second the ``k`` partials of each column.  A
    single ``ones(M) @ rows`` adds each column's M values one after another,
    which on the 8-channel 32x32 layer of the MobileNet training step lost
    an order of magnitude of float32 accuracy.  ``k`` depends on the shape
    alone, so the bits repeat from run to run.
    """
    k = max(1, min(m, _GW_ROW_WIDTH // c))
    while m % k:
        k -= 1
    return k


def depthwise_fwd_block(
    xs: np.ndarray,
    weight: np.ndarray,
    out: np.ndarray,
    stride: int,
    epilogue: EpilogueArgs | None = None,
) -> None:
    """Depthwise forward of staged ``xs`` into ``out``, taps in canonical
    ``(i, j)`` order, the epilogue applied to each batch chunk while it is
    cache-hot."""
    _, _, ho, wo = out.shape
    groups = xs.shape[-1]
    kh, kw = weight.shape[2], weight.shape[3]
    wt = _tap_weights(weight, groups, wo)            # (KH, KW, Wo, G, og)
    for nsl in _batch_chunks(out.shape, out.itemsize):
        xl = xs[nsl, ..., None]                       # (Nc, s, s, Hq, Wq, G, 1)
        acc = np.empty((xl.shape[0], ho, wo) + wt.shape[3:], dtype=out.dtype)
        tmp = np.empty_like(acc)
        np.multiply(_tap(xl, 0, 0, ho, wo, stride), wt[0, 0], out=acc)
        for i in range(kh):
            for j in range(kw):
                if i or j:
                    np.multiply(_tap(xl, i, j, ho, wo, stride), wt[i, j], out=tmp)
                    np.add(acc, tmp, out=acc)
        block = out[nsl]
        block[...] = acc.reshape(acc.shape[:3] + (-1,)).transpose(0, 3, 1, 2)
        if epilogue is not None:
            epilogue.apply(block)


def depthwise_bwd_block(
    xs: np.ndarray,
    weight: np.ndarray,
    grad: np.ndarray,
    grad_x: np.ndarray | None,
    grad_w: np.ndarray | None,
    stride: int,
    padding: int,
) -> None:
    """Depthwise grad-input (unpadded, into ``grad_x``) and grad-weight,
    reading the forward's staged ``xs``.  Grad-input accumulates the taps
    in canonical order per multiplier index; grad-weight reduces each tap's
    products with BLAS matvecs (:func:`_row_group`)."""
    _, cout, ho, wo = grad.shape
    groups = xs.shape[-1]
    og = cout // groups
    kh, kw = weight.shape[2], weight.shape[3]
    wq = xs.shape[4]
    runs = _grad_runs(wo, wq)
    if grad_x is not None:
        wt = _tap_weights(weight, groups, wq if runs else wo)
    chunks = _batch_chunks(grad.shape, grad.itemsize)
    partials = []
    for nsl in chunks:
        gl = _channels_last(grad[nsl]).reshape(-1, ho, wo, groups, og)
        if grad_x is not None:
            gcells = gl
            if runs:                                  # zero in the wrapped cells
                gcells = np.zeros((gl.shape[0], ho, wq, groups, og), gl.dtype)
                gcells[:, :, :wo] = gl
            hq = xs.shape[3] + (1 if runs else 0)      # spare row for the runs
            gs = np.zeros((gl.shape[0],) + xs.shape[1:3] + (hq, wq, groups), grad_x.dtype)
            tmp = np.empty(gcells.shape[:-1], dtype=grad_x.dtype)
            for k in range(og):
                for i in range(kh):
                    for j in range(kw):
                        if runs:
                            cell = _run(gs, i, j, ho, wq, stride)
                        else:
                            cell = _tap(gs, i, j, ho, wo, stride)
                        np.multiply(gcells[..., k], wt[i, j, ..., k], out=tmp)
                        np.add(cell, tmp, out=cell)
            unstage_depthwise(gs, grad_x[nsl], stride, padding)
        if grad_w is not None:
            xl = xs[nsl, ..., None]
            prod = np.empty(gl.shape, dtype=np.result_type(grad, xs))
            k = _row_group(prod.size // cout, cout)
            grouped = prod.reshape(-1, k * cout)
            ones_rows = np.ones(grouped.shape[0], prod.dtype)
            ones_k = np.ones(k, prod.dtype)
            sums = np.empty((kh, kw, cout), dtype=prod.dtype)
            for i in range(kh):
                for j in range(kw):
                    np.multiply(gl, _tap(xl, i, j, ho, wo, stride), out=prod)
                    sums[i, j] = ones_k @ (ones_rows @ grouped).reshape(k, cout)
            partials.append(sums)
    if grad_w is not None:
        stacked = np.stack(partials).reshape(len(chunks), -1)
        total = np.ones(len(chunks), stacked.dtype) @ stacked
        grad_w[:, 0] = total.reshape(kh, kw, -1).transpose(2, 0, 1)


def _conv_forward(
    plan: Conv2dPlan, x: np.ndarray, weight: np.ndarray,
    epilogue: EpilogueArgs | None = None,
) -> tuple[np.ndarray, dict]:
    """Forward of any conv geometry and its backward context; ``epilogue``
    runs per output slab.  Depthwise convs stage ``x`` once
    (:func:`stage_depthwise`), the others pad it."""
    groups = plan.groups
    if plan.depthwise:
        xs = stage_depthwise(x, plan.stride, plan.padding)
        out = np.empty(plan.out_shape, dtype=x.dtype)
        depthwise_fwd_block(xs, weight, out, plan.stride, epilogue)
        return out, {"xs": xs, "w": weight}
    xp = pad2d(x, plan.padding)
    kh, kw = plan.kernel
    patches = _patch_view(xp, kh, kw, plan.stride)
    if groups == 1:
        out = im2col_gemm(patches, weight)
        if epilogue is not None:
            epilogue.apply(out)
        return out, {"xp": xp, "w": weight}
    out = np.empty(plan.out_shape, dtype=x.dtype)
    og = plan.out_shape[1] // groups
    cg = plan.x_shape[1] // groups
    for g in range(groups):
        gsl = slice(g * og, (g + 1) * og)
        out[:, gsl] = im2col_gemm(patches[:, g * cg : (g + 1) * cg], weight[gsl])
        if epilogue is not None:
            epilogue.apply(out[:, gsl], gsl)
    return out, {"xp": xp, "w": weight}


def _unpad_grad(grad_xp: np.ndarray | None, padding: int) -> np.ndarray | None:
    if grad_xp is None or not padding:
        return grad_xp
    return np.ascontiguousarray(grad_xp[:, :, padding:-padding, padding:-padding])


@register_kernel("conv2d", "numpy")
def conv2d(
    plan: Conv2dPlan, x: np.ndarray, weight: np.ndarray,
    epilogue: EpilogueArgs | None = None,
):
    """Forward and backward context; an inference ``epilogue`` (bias, BN
    affine, activation) runs per output slab while it is cache-hot, so no
    intermediate tensors are materialized."""
    return _conv_forward(plan, x, weight, epilogue)


@register_kernel("conv2d_backward", "numpy")
def conv2d_backward(
    plan: Conv2dPlan,
    ctx: dict,
    grad: np.ndarray,
    need_input_grad: bool = True,
    need_weight_grad: bool = True,
):
    weight = ctx["w"]
    stride, groups = plan.stride, plan.groups
    if plan.depthwise:
        xs = ctx["xs"]
        grad_x = np.empty(plan.x_shape, dtype=xs.dtype) if need_input_grad else None
        grad_w = np.empty_like(weight) if need_weight_grad else None
        depthwise_bwd_block(xs, weight, grad, grad_x, grad_w, stride, plan.padding)
        return grad_x, grad_w
    xp = ctx["xp"]
    grad_w = np.zeros_like(weight) if need_weight_grad else None
    grad_xp = np.zeros_like(xp) if need_input_grad else None

    cout, _, kh, kw = weight.shape
    ho, wo = grad.shape[2], grad.shape[3]
    patches = _patch_view(xp, kh, kw, stride)
    cg = xp.shape[1] // groups
    og = cout // groups

    for g in range(groups):
        gsl = slice(g * og, (g + 1) * og)
        csl = slice(g * cg, (g + 1) * cg)
        gout = grad[:, gsl]
        if need_weight_grad:
            grad_w[gsl] = np.einsum(
                "nohw,nchwij->ocij", gout, patches[:, csl], optimize=plan.gradw_path
            )
        if need_input_grad:
            # Scatter the data gradient as KH*KW strided accumulations.
            wg = weight[gsl]
            for i in range(kh):
                for j in range(kw):
                    contrib = np.einsum(
                        "nohw,oc->nchw", gout, wg[:, :, i, j], optimize=plan.gradx_path
                    )
                    grad_xp[
                        :, csl,
                        i : i + ho * stride : stride,
                        j : j + wo * stride : stride,
                    ] += contrib
    return _unpad_grad(grad_xp, plan.padding), grad_w


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

@register_kernel("maxpool2d", "numpy")
def maxpool2d(plan: Pool2dPlan, x: np.ndarray):
    k = plan.kernel
    xp = pad2d(x, plan.padding, fill=-np.inf)
    patches = _patch_view(xp, k, k, plan.stride)
    n, c, ho, wo = patches.shape[:4]
    flat = patches.reshape(n, c, ho, wo, k * k)
    argmax = flat.argmax(axis=-1)
    return flat.max(axis=-1), {"argmax": argmax}


@register_kernel("maxpool2d_backward", "numpy")
def maxpool2d_backward(plan: Pool2dPlan, ctx: dict, grad: np.ndarray):
    k, stride, padding = plan.kernel, plan.stride, plan.padding
    argmax = ctx["argmax"]
    gxp = np.zeros(plan.padded_shape, dtype=grad.dtype)
    ki = argmax // k
    kj = argmax % k
    ni, ci, yi, xi = np.indices(grad.shape, sparse=False)
    rows = yi * stride + ki
    cols = xi * stride + kj
    np.add.at(gxp, (ni, ci, rows, cols), grad)
    if padding:
        gxp = np.ascontiguousarray(gxp[:, :, padding:-padding, padding:-padding])
    return gxp


@register_kernel("avgpool2d", "numpy")
def avgpool2d(plan: Pool2dPlan, x: np.ndarray):
    n, c, h, w = x.shape
    k = plan.kernel
    out = x.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))
    return out, {}


@register_kernel("avgpool2d_backward", "numpy")
def avgpool2d_backward(plan: Pool2dPlan, ctx: dict, grad: np.ndarray):
    k = plan.kernel
    g = np.repeat(np.repeat(grad, k, axis=2), k, axis=3) * (1.0 / (k * k))
    return g.astype(grad.dtype)


# ---------------------------------------------------------------------------
# SCC: the three execution strategies (paper Section IV)
# ---------------------------------------------------------------------------
#
# SCC is spatially 1x1 (it replaces the PW stage of a DW+PW block), so one
# call is fully described by the input ``x (N, Cin, H, W)``, the weight
# ``w (Cout, group_width)`` and the plan's window matrix.  Each strategy is
# a forward + full backward pair mirroring one of the paper's
# implementations, and bumps the KernelStats counters repro.gpusim
# cross-checks:
#
# ================  =====================================================
# channel_stack     *Pytorch-Base* (Fig. 3a): gather every filter's window
#                   into one huge (N, Cout, gw, H, W) stacked tensor
#                   (massive data duplication), then one grouped
#                   reduction.  Backward keeps the stacked tensor and
#                   scatter-adds the input gradient (the "conflict update"
#                   of paper Fig. 4a).
# conv_stack        *Pytorch-Opt* (Fig. 6b): channel-cyclic optimisation —
#                   only the ``cyclic_dist`` distinct windows of the first
#                   cycle are gathered (copied); filters p, p+cd, p+2cd, ...
#                   share window p and run as one GEMM, written strided.
# dsxplore          the fused kernel (Section IV-B): output-centric forward
#                   reading input channels through zero-copy views (no
#                   gather, no duplication); input-centric backward
#                   computing grad_x as one "pull" GEMM against the dense
#                   W_full (Cout, Cin) with zero scatter traffic.
#                   ``backward_design="output_centric"`` is the paper's
#                   *DSXplore-Var* push: per-filter contributions
#                   scatter-added with ``np.add.at``.
# ================  =====================================================
#
# CPU/GPU mapping (the premise repro.gpusim models): relative costs transfer
# because the dominant effects — materialised bytes, number of distinct
# kernel invocations, and serialised conflicting updates — exist on both
# targets.  ``np.add.at`` is NumPy's unbuffered scatter-add: conflicting
# updates are applied sequentially, the same serialisation GPU atomics pay.

def _count_push_scatter(plan: SCCPlan, stats: KernelStats, total_updates: int) -> None:
    cfg = plan.config
    stats.scatter_adds += total_updates
    fraction = scc_conflict_fraction(
        cfg.in_channels, cfg.out_channels, cfg.group_width
    )
    stats.conflicting_scatter_adds += int(total_updates * fraction)


def _channel_stack_forward(plan, x, w, stats, epilogue=None):
    # Steps 1-3 of Pytorch-Base: one gather == slice+concat of every window
    # into the (N, Cout, gw, H, W) stacked tensor.  ``np.take`` writes it
    # C-contiguous; ``x[:, windows]`` may put the batch axis innermost, and
    # the grouped GEMM's bits depend on the layout.
    stacked = np.take(x, plan.windows, axis=1)
    stats.bytes_materialized += stacked.nbytes
    stats.gemm_calls += 1
    # Step 4: grouped convolution with groups == Cout.
    out = planned_einsum("noghw,og->nohw", stacked, w)
    if epilogue is not None:
        epilogue.apply(out)
    return out, {"x": x, "w": w, "stacked": stacked}


def _channel_stack_backward(plan, saved, grad_out, need_x, need_w, stats):
    w, stacked = saved["w"], saved["stacked"]
    grad_x = grad_w = None
    if need_w:
        grad_w = planned_einsum("nohw,noghw->og", grad_out, stacked)
        stats.gemm_calls += 1
    if need_x:
        # Reverse of the concat/extract: scatter the stacked gradient back,
        # with conflicts wherever windows overlap.
        grad_stacked = planned_einsum("nohw,og->noghw", grad_out, w)
        stats.bytes_materialized += grad_stacked.nbytes
        stats.gemm_calls += 1
        grad_x = np.zeros_like(saved["x"])
        idx_n = np.arange(grad_out.shape[0])[:, None, None]
        np.add.at(grad_x, (idx_n, plan.windows[None, :, :]), grad_stacked)
        _count_push_scatter(plan, stats, grad_stacked.size)
    return grad_x, grad_w


# SCC segment GEMMs.  Each DSXplore contraction is a plain batched
# ``np.matmul`` over ``(N, C, H*W)`` reshapes of the zero-copy channel
# views: a reshape of ``x[:, chan_slice]`` (or of ``grad_out[:, p::cd]``)
# merges only the contiguous H, W axes, so it stays a view.  ``einsum``
# would copy each segment to channels-last first and hand back a permuted
# result.

def segment_fwd_gemm(x_seg: np.ndarray, w_seg: np.ndarray) -> np.ndarray:
    """``w_seg (O, C) . x_seg (N, C, H, W)`` as an (N, O, H, W) array."""
    n, c, h, w = x_seg.shape
    return np.matmul(w_seg, x_seg.reshape(n, c, h * w)).reshape(n, -1, h, w)


def segment_gradw_gemm(grad_seg: np.ndarray, x_seg: np.ndarray) -> np.ndarray:
    """(O, C) weight gradient ``sum_n grad_seg[n] . x_seg[n]^T``: one
    matmul per batch row, then a sum over ``n`` in batch order."""
    n, c, h, w = x_seg.shape
    per_row = np.matmul(
        grad_seg.reshape(n, -1, h * w), x_seg.reshape(n, c, h * w).transpose(0, 2, 1)
    )
    return per_row.sum(axis=0)


def pull_gemm(grad_out: np.ndarray, w_full: np.ndarray) -> np.ndarray:
    """The input-centric pull GEMM ``w_full^T (C, O) . grad_out (N, O, H, W)``."""
    n, o, h, w = grad_out.shape
    return np.matmul(w_full.T, grad_out.reshape(n, o, h * w)).reshape(n, -1, h, w)


# Per-cycle-position blocks.  Cycle position ``p`` owns the output
# interleave ``out[:, p::cd]`` (and the weight rows ``w[p::cd]``), so the
# blocks of different ``p`` write disjoint memory; the strategies run them
# over every ``p`` in order.

def conv_stack_fwd_block(plan, x, w, out, gathered, p, stats, epilogue=None) -> None:
    """Gather cycle position ``p``'s window and run its grouped GEMM."""
    cd = plan.cyclic_dist
    win = x[:, plan.cycle_index[p]]                   # (N, gw, H, W) copy
    stats.bytes_materialized += win.nbytes
    gathered[p] = win
    out[:, p::cd] = planned_einsum("nghw,og->nohw", win, w[p::cd])
    stats.gemm_calls += 1
    if epilogue is not None:
        epilogue.apply(out[:, p::cd], slice(p, None, cd))


def conv_stack_bwd_block(plan, w, gathered, grad_out, grad_w, contribs, p, stats) -> None:
    """Cycle position ``p``'s weight gradient (into ``grad_w``) and window
    data-grad contribution (into ``contribs[p]``); either may be ``None``."""
    cd = plan.cyclic_dist
    g = grad_out[:, p::cd]
    if grad_w is not None:
        grad_w[p::cd] = planned_einsum("nohw,nghw->og", g, gathered[p])
        stats.gemm_calls += 1
    if contribs is not None:
        contrib = planned_einsum("nohw,og->nghw", g, w[p::cd])
        stats.bytes_materialized += contrib.nbytes
        stats.gemm_calls += 1
        contribs[p] = contrib


def apply_conv_stack_contribs(plan, grad_x, contribs, stats) -> None:
    """Scatter the window contributions into ``grad_x`` in cycle order.

    Within one cycle position the window channels are distinct, so a
    fancy-index ``+=`` is conflict-free; conflicts across cycle positions
    are resolved by this serial loop (framework-level serialisation, the
    paper's point about composed-operator implementations).
    """
    for p, contrib in enumerate(contribs):
        grad_x[:, plan.cycle_index[p]] += contrib
        stats.scatter_adds += contrib.size


def dsxplore_fwd_block(plan, x, w, out, p, stats, epilogue=None) -> None:
    """Cycle position ``p``'s segment GEMMs, summed into ``out[:, p::cd]``
    in segment order.  ``x[:, chan_slice]`` is a view: zero bytes copied."""
    cd = plan.cyclic_dist
    out_p = out[:, p::cd]
    wp = w[p::cd]
    for k, (chan_slice, col_slice) in enumerate(plan.segments[p]):
        prod = segment_fwd_gemm(x[:, chan_slice], wp[:, col_slice])
        if k:
            out_p += prod
        else:
            out_p[...] = prod
        stats.gemm_calls += 1
    if epilogue is not None:
        epilogue.apply(out_p, slice(p, None, cd))


def dsxplore_gradw_block(plan, x, grad_out, grad_w, p, stats) -> None:
    """Cycle position ``p``'s segment weight gradients into ``grad_w``."""
    cd = plan.cyclic_dist
    g = grad_out[:, p::cd]
    for chan_slice, col_slice in plan.segments[p]:
        grad_w[p::cd, col_slice] = segment_gradw_gemm(g, x[:, chan_slice])
        stats.gemm_calls += 1


def _conv_stack_forward(plan, x, w, stats, epilogue=None):
    cfg = plan.config
    n, _, h, wdt = x.shape
    out = np.empty((n, cfg.out_channels, h, wdt), dtype=x.dtype)
    gathered = [None] * plan.cyclic_dist
    for p in range(plan.cyclic_dist):
        conv_stack_fwd_block(plan, x, w, out, gathered, p, stats, epilogue)
    return out, {"x": x, "w": w, "gathered": gathered}


def _conv_stack_backward(plan, saved, grad_out, need_x, need_w, stats):
    cd = plan.cyclic_dist
    grad_w = np.empty_like(saved["w"]) if need_w else None
    contribs = [None] * cd if need_x else None
    for p in range(cd):
        conv_stack_bwd_block(
            plan, saved["w"], saved["gathered"], grad_out, grad_w, contribs, p, stats
        )
    grad_x = None
    if need_x:
        grad_x = np.zeros_like(saved["x"])
        apply_conv_stack_contribs(plan, grad_x, contribs, stats)
    return grad_x, grad_w


def _dsxplore_forward(plan, x, w, stats, epilogue=None):
    n, _, h, wdt = x.shape
    out = np.empty((n, plan.config.out_channels, h, wdt), dtype=x.dtype)
    for p in range(plan.cyclic_dist):
        dsxplore_fwd_block(plan, x, w, out, p, stats, epilogue)
    return out, {"x": x, "w": w}


def _dsxplore_backward(plan, saved, grad_out, need_x, need_w, stats, backward_design):
    x, w = saved["x"], saved["w"]
    grad_w = None
    if need_w:
        grad_w = np.empty_like(w)
        for p in range(plan.cyclic_dist):
            dsxplore_gradw_block(plan, x, grad_out, grad_w, p, stats)
    grad_x = None
    if need_x:
        if backward_design == "input_centric":
            # One dense pull GEMM, zero scatter updates.  The W_full scratch
            # workspace comes from the plan cache (refilled, not rebuilt).
            w_full = plan.w_full(w)
            stats.bytes_materialized += w_full.nbytes
            grad_x = pull_gemm(grad_out, w_full)
            stats.gemm_calls += 1
            grad_x = grad_x.astype(x.dtype, copy=False)
        else:
            # Output-centric (*DSXplore-Var*): push with serialised conflicts.
            contrib = planned_einsum("nohw,og->noghw", grad_out, w)
            stats.bytes_materialized += contrib.nbytes
            stats.gemm_calls += 1
            grad_x = np.zeros_like(x)
            idx_n = np.arange(grad_out.shape[0])[:, None, None]
            np.add.at(grad_x, (idx_n, plan.windows[None, :, :]), contrib)
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


@register_kernel("scc_forward", "numpy")
def scc_forward(
    plan: SCCPlan,
    x: np.ndarray,
    w: np.ndarray,
    *,
    strategy: str = "dsxplore",
    stats: KernelStats | None = None,
    epilogue: EpilogueArgs | None = None,
):
    plan.check(strategy, x=x, w=w)
    return _FORWARD[strategy](
        plan, x, w, stats if stats is not None else KernelStats(), epilogue=epilogue
    )


@register_kernel("scc_backward", "numpy")
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
    plan.check(strategy, backward_design, x=saved["x"], grad_out=grad_out)
    stats = stats if stats is not None else KernelStats()
    if strategy == "dsxplore":
        return _dsxplore_backward(
            plan, saved, grad_out, need_input_grad, need_weight_grad, stats,
            backward_design,
        )
    return _BACKWARD[strategy](
        plan, saved, grad_out, need_input_grad, need_weight_grad, stats
    )
