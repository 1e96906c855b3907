"""Convolution, pooling and batch-norm autograd kernels (NCHW layout).

These are the "cuDNN primitives" of the reproduction: the standard / grouped
convolution here is what the paper's *Pytorch-Base* and *Pytorch-Opt* SCC
strategies composite (Section IV-A), while the SCC kernels, the fused
DSXplore one included, live in :mod:`repro.backend` and run through
:class:`repro.core.scc.SCCFunction`.

Execution routes through the :mod:`repro.backend` registry: each Function
resolves its workload to a cached execution plan (geometry, tile schedule
and backward contraction paths, see :mod:`repro.backend.plan`) and
dispatches to the selected backend — ``"numpy"`` (zero-copy ``as_strided``
patch views; an im2col GEMM forward and planned-einsum backward, the
default; depthwise convs stage their input once into a phase-split
channels-last buffer that is also the backward context) or
``"reference"`` (loop kernels).  Repeated-shape calls reuse the plan; only
the first call of a shape-class pays the ``np.einsum_path`` search and
geometry checks.

Batch normalisation is not a registry kernel: :class:`BatchNorm2d` is one
training-mode node that also applies the ReLU after it when asked (see
:func:`repro.nn.bn_act`), reducing with BLAS matvecs.
"""
from __future__ import annotations

import numpy as np

from repro.backend import (
    conv2d_plan,
    conv_out_size,
    get_kernel,
    pool2d_plan,
)
from repro.tensor.function import Function

__all__ = [
    "conv_out_size",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "BatchNorm2d",
]


class Conv2d(Function):
    """Standard / grouped 2D convolution.

    ``weight`` has shape ``(Cout, Cin // groups, KH, KW)``.  Depthwise
    convolution is the ``groups == Cin`` special case; pointwise is
    ``KH == KW == 1`` — exactly the taxonomy of paper Figure 1.
    """

    def forward(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        backend: str = "default",
    ) -> np.ndarray:
        plan = conv2d_plan(x.shape, weight.shape, stride, padding, groups, x.dtype)
        out, ctx = get_kernel("conv2d", backend)(plan, x, weight)
        self.plan = plan
        self.ctx = ctx
        self.backend = backend
        return out

    def backward(self, grad: np.ndarray):
        need_x = self.needs_input_grad[0]
        need_w = len(self.needs_input_grad) > 1 and self.needs_input_grad[1]
        grad_x, grad_w = get_kernel("conv2d_backward", self.backend)(
            self.plan, self.ctx, grad,
            need_input_grad=need_x, need_weight_grad=need_w,
        )
        results = [grad_x]
        if len(self.needs_input_grad) > 1:
            results.append(grad_w)
        return tuple(results)


class MaxPool2d(Function):
    """Max pooling with optional padding; supports overlapping windows."""

    def forward(
        self,
        x: np.ndarray,
        kernel: int,
        stride: int,
        padding: int = 0,
        backend: str = "default",
    ) -> np.ndarray:
        plan = pool2d_plan("max", x.shape, kernel, stride, padding, x.dtype)
        out, ctx = get_kernel("maxpool2d", backend)(plan, x)
        self.plan = plan
        self.ctx = ctx
        self.backend = backend
        return out

    def backward(self, grad: np.ndarray):
        gx = get_kernel("maxpool2d_backward", self.backend)(self.plan, self.ctx, grad)
        return (gx,)


class AvgPool2d(Function):
    """Average pooling (non-overlapping fast path via reshape)."""

    def forward(
        self,
        x: np.ndarray,
        kernel: int,
        stride: int | None = None,
        backend: str = "default",
    ) -> np.ndarray:
        stride = kernel if stride is None else stride
        plan = pool2d_plan("avg", x.shape, kernel, stride, 0, x.dtype)
        out, ctx = get_kernel("avgpool2d", backend)(plan, x)
        self.plan = plan
        self.ctx = ctx
        self.backend = backend
        return out

    def backward(self, grad: np.ndarray):
        gx = get_kernel("avgpool2d_backward", self.backend)(self.plan, self.ctx, grad)
        return (gx,)


# Reductions with fewer values per channel than this run in float64.  With
# two or three values per channel the centred values nearly cancel in
# grad-input: over 150 seeds per shape, float32 missed the float64 result by
# up to 1.4x a 2e-4 tolerance at m == 2 and 0.09x at m == 3, against at
# most 0.01x from m == 4 up.
_F64_BELOW_M = 16


def _channel_sums(a: np.ndarray) -> np.ndarray:
    """Per-channel sums of an ``(N, C, L)`` array as two BLAS matvecs;
    ``sum(axis=(0, 2))`` took 4-17x as long on the batch-32 shapes of the
    MobileNet training step."""
    n, _, length = a.shape
    return np.ones(n, a.dtype) @ np.matmul(a, np.ones(length, a.dtype))


def _channel_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-channel sums of ``a * b`` over ``(N, C, L)`` arrays: ``einsum``
    on long rows, the product's matvecs on short ones (below 32 values a
    row, ``einsum`` takes up to 4x as long)."""
    if a.shape[2] >= 32:
        return np.einsum("ncl,ncl->c", a, b)
    return _channel_sums(a * b)


class BatchNorm2d(Function):
    """Training-mode batch normalisation over (N, H, W) per channel, and
    the ReLU after it when ``relu`` is set.

    One node rather than composed mean/var ops, because BN sits after every
    convolution.  Both passes reduce over the ``(N, C, H*W)`` view with
    BLAS matvecs (:func:`_channel_sums`) and do their elementwise work on
    the flat ``(N, C*H*W)`` rows, each per-channel vector expanded once
    with ``np.repeat``: on 4x4 and 2x2 maps a per-channel broadcast would
    run numpy's inner loop over 16 or 4 values.  Forward centres the input
    into the output buffer, takes the variance of the centred values, then
    scales, shifts and (with ``relu``) clamps that buffer in place.  It
    saves the input, which the graph holds anyway, and the batch mean, not
    a centred copy: a centred copy per layer held from forward to backward
    made the allocator fault about 2300 fresh pages back in on every step
    of the MobileNet training loop.  With ``relu`` it also saves the output,
    whose positive cells are the ReLU's mask.  Backward centres the input
    again (the same bits), masks the incoming gradient, takes its two sums
    (``grad_beta`` and the dot with the centred values, which gives
    ``grad_gamma``) and turns the centred buffer into ``grad_x`` in place,
    reusing both sums.  Arithmetic stays in the
    input's dtype except on reductions of fewer than ``_F64_BELOW_M``
    values per channel, which run in float64 and round once at the end.
    ``batch_mean`` / ``batch_var`` (biased) are left on the node for the
    module's running statistics.
    """

    def forward(
        self,
        x: np.ndarray,
        gamma: np.ndarray,
        beta: np.ndarray,
        eps: float = 1e-5,
        relu: bool = False,
    ) -> np.ndarray:
        n, c = x.shape[:2]
        m = x.size // max(c, 1)
        work = x.dtype if m >= _F64_BELOW_M else np.float64
        xv = x.reshape(n, c, -1).astype(work, copy=False)
        length = xv.shape[2]
        mean = _channel_sums(xv) / m
        out = xv.reshape(n, -1) - np.repeat(mean, length)     # centred, for now
        c3 = out.reshape(xv.shape)
        var = _channel_dots(c3, c3) / m
        inv_std = 1.0 / np.sqrt(var + eps)
        out *= np.repeat((gamma * inv_std).astype(work, copy=False), length)
        out += np.repeat(beta.astype(work, copy=False), length)
        if relu:
            np.maximum(out, 0, out=out)
        out = out.astype(x.dtype, copy=False)
        self.save_for_backward(xv, mean, inv_std, gamma, out if relu else None)
        self.batch_mean = mean
        self.batch_var = var
        return out.reshape(x.shape)

    def backward(self, grad: np.ndarray):
        xv, mean, inv_std, gamma, out = self.saved
        n, c, length = xv.shape
        m = n * length
        centred = xv.reshape(n, -1) - np.repeat(mean, length)
        gv = grad.reshape(n, -1)
        if out is not None:
            gv = gv * (out > 0)
        gv = gv.astype(centred.dtype, copy=False)
        g3 = gv.reshape(xv.shape)
        grad_beta = _channel_sums(g3)
        dot = _channel_dots(g3, centred.reshape(xv.shape))
        # grad_x = gamma * inv_std * (grad - grad_beta / m - xhat * grad_gamma / m)
        # with xhat = centred * inv_std and grad_gamma = dot * inv_std.
        grad_x = centred
        grad_x *= np.repeat(inv_std * inv_std * dot / m, length)
        grad_x += np.repeat(grad_beta / m, length)
        np.subtract(gv, grad_x, out=grad_x)
        grad_x *= np.repeat((gamma * inv_std).astype(grad_x.dtype, copy=False), length)
        results = [grad_x.astype(grad.dtype, copy=False).reshape(grad.shape)]
        if len(self.needs_input_grad) > 1:
            results.append((dot * inv_std).astype(grad.dtype, copy=False))
        if len(self.needs_input_grad) > 2:
            results.append(grad_beta.astype(grad.dtype, copy=False))
        return tuple(results)
