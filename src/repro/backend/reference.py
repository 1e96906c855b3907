"""The ``reference`` backend: dead-simple loop kernels.

Every op the registry dispatches has a naive implementation here — the
ground truth the vectorised ``numpy`` backend is tested against.  These
kernels loop over filters, taps and windows; they are orders of magnitude
slower and exist for correctness only (tests, cross-checks, debugging a new
backend).  Instrumentation: reference kernels materialise nothing and count
one "gemm" per filter reduction, so :class:`KernelStats` stays meaningful
when a strategy runs on this backend.
"""
from __future__ import annotations

import numpy as np

from repro.backend.plan import Conv2dPlan, Pool2dPlan, SCCPlan
from repro.backend.registry import register_kernel
from repro.backend.stats import KernelStats
from repro.utils.pad import pad2d


def scc_forward_loops(x: np.ndarray, w: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """Loop implementation of the paper's SCC equation (one term at a time)."""
    n, cin, h, wdt = x.shape
    cout, gw = w.shape
    out = np.zeros((n, cout, h, wdt), dtype=np.result_type(x, w))
    for o in range(cout):
        for g in range(gw):
            out[:, o] += w[o, g] * x[:, windows[o, g]]
    return out.astype(x.dtype)


def scc_backward_loops(
    grad_out: np.ndarray,
    x: np.ndarray,
    w: np.ndarray,
    windows: np.ndarray,
    need_input_grad: bool = True,
    need_weight_grad: bool = True,
):
    """Loop VJP of :func:`scc_forward_loops` (the test-suite reference)."""
    cout, gw = w.shape
    grad_x = np.zeros_like(x) if need_input_grad else None
    grad_w = np.zeros_like(w) if need_weight_grad else None
    for o in range(cout):
        for g in range(gw):
            if need_weight_grad:
                grad_w[o, g] = (grad_out[:, o] * x[:, windows[o, g]]).sum()
            if need_input_grad:
                grad_x[:, windows[o, g]] += grad_out[:, o] * w[o, g]
    return grad_x, grad_w


@register_kernel("scc_forward", "reference")
def scc_forward(
    plan: SCCPlan,
    x: np.ndarray,
    w: np.ndarray,
    *,
    strategy: str = "dsxplore",
    stats: KernelStats | None = None,
    epilogue=None,
):
    # All three strategies compute the same function; the reference backend
    # runs the defining equation directly regardless of ``strategy``.
    if stats is not None:
        stats.gemm_calls += plan.config.out_channels
    out = scc_forward_loops(x, w, plan.windows)
    if epilogue is not None:
        epilogue.apply(out)
    return out, {"x": x, "w": w}


@register_kernel("scc_backward", "reference")
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
    if stats is not None:
        stats.gemm_calls += plan.config.out_channels
    return scc_backward_loops(
        grad_out, saved["x"], saved["w"], plan.windows,
        need_input_grad, need_weight_grad,
    )


@register_kernel("conv2d", "reference")
def conv2d(plan: Conv2dPlan, x: np.ndarray, weight: np.ndarray):
    stride, padding, groups = plan.stride, plan.padding, plan.groups
    cout, cin_g, kh, kw = weight.shape
    _, _, ho, wo = plan.out_shape
    xp = pad2d(x, padding)
    og = cout // groups
    out = np.zeros(plan.out_shape, dtype=np.result_type(x, weight))
    for o in range(cout):
        g = o // og
        for c in range(cin_g):
            chan = xp[:, g * cin_g + c]
            for i in range(kh):
                for j in range(kw):
                    out[:, o] += weight[o, c, i, j] * chan[
                        :, i : i + ho * stride : stride, j : j + wo * stride : stride
                    ]
    return out.astype(x.dtype), {"xp": xp, "w": weight}


@register_kernel("conv2d_backward", "reference")
def conv2d_backward(
    plan: Conv2dPlan,
    ctx: dict,
    grad: np.ndarray,
    need_input_grad: bool = True,
    need_weight_grad: bool = True,
):
    xp, weight = ctx["xp"], ctx["w"]
    stride, padding, groups = plan.stride, plan.padding, plan.groups
    cout, cin_g, kh, kw = weight.shape
    ho, wo = grad.shape[2], grad.shape[3]
    og = cout // groups

    grad_w = np.zeros_like(weight) if need_weight_grad else None
    grad_xp = np.zeros_like(xp) if need_input_grad else None
    for o in range(cout):
        g = o // og
        gout = grad[:, o]
        for c in range(cin_g):
            chan = g * cin_g + c
            for i in range(kh):
                for j in range(kw):
                    isl = slice(i, i + ho * stride, stride)
                    jsl = slice(j, j + wo * stride, stride)
                    if need_weight_grad:
                        grad_w[o, c, i, j] = (gout * xp[:, chan, isl, jsl]).sum()
                    if need_input_grad:
                        grad_xp[:, chan, isl, jsl] += weight[o, c, i, j] * gout

    grad_x = None
    if need_input_grad:
        if padding:
            grad_x = np.ascontiguousarray(
                grad_xp[:, :, padding:-padding, padding:-padding]
            )
        else:
            grad_x = grad_xp
    return grad_x, grad_w


@register_kernel("maxpool2d", "reference")
def maxpool2d(plan: Pool2dPlan, x: np.ndarray):
    k, stride, padding = plan.kernel, plan.stride, plan.padding
    xp = pad2d(x, padding, fill=-np.inf)
    n, c, ho, wo = plan.out_shape
    out = np.empty(plan.out_shape, dtype=x.dtype)
    argmax = np.empty(plan.out_shape, dtype=np.int64)
    for y in range(ho):
        for xx in range(wo):
            win = xp[:, :, y * stride : y * stride + k, xx * stride : xx * stride + k]
            flat = win.reshape(n, c, k * k)
            argmax[:, :, y, xx] = flat.argmax(axis=-1)
            out[:, :, y, xx] = flat.max(axis=-1)
    return out, {"argmax": argmax}


@register_kernel("maxpool2d_backward", "reference")
def maxpool2d_backward(plan: Pool2dPlan, ctx: dict, grad: np.ndarray):
    k, stride, padding = plan.kernel, plan.stride, plan.padding
    argmax = ctx["argmax"]
    n, c, ho, wo = grad.shape
    gxp = np.zeros(plan.padded_shape, dtype=grad.dtype)
    ni, ci = np.indices((n, c), sparse=False)
    for y in range(ho):
        for xx in range(wo):
            am = argmax[:, :, y, xx]
            # One winning cell per (n, c): conflict-free fancy-index +=.
            gxp[ni, ci, y * stride + am // k, xx * stride + am % k] += grad[:, :, y, xx]
    if padding:
        gxp = np.ascontiguousarray(gxp[:, :, padding:-padding, padding:-padding])
    return gxp


@register_kernel("avgpool2d", "reference")
def avgpool2d(plan: Pool2dPlan, x: np.ndarray):
    k = plan.kernel
    n, c, ho, wo = plan.out_shape
    out = np.empty(plan.out_shape, dtype=x.dtype)
    for y in range(ho):
        for xx in range(wo):
            out[:, :, y, xx] = x[
                :, :, y * k : (y + 1) * k, xx * k : (xx + 1) * k
            ].mean(axis=(2, 3))
    return out, {}


@register_kernel("avgpool2d_backward", "reference")
def avgpool2d_backward(plan: Pool2dPlan, ctx: dict, grad: np.ndarray):
    k = plan.kernel
    gx = np.zeros(plan.x_shape, dtype=grad.dtype)
    scale = 1.0 / (k * k)
    n, c, ho, wo = grad.shape
    for y in range(ho):
        for xx in range(wo):
            gx[:, :, y * k : (y + 1) * k, xx * k : (xx + 1) * k] = (
                grad[:, :, y, xx, None, None] * scale
            )
    return gx
