"""Convolution, pooling and batch-norm autograd kernels (NCHW layout).

These are the "cuDNN primitives" of the reproduction: the standard / grouped
convolution here is what the paper's *Pytorch-Base* and *Pytorch-Opt* SCC
strategies composite (Section IV-A), while the fused DSXplore SCC kernel
lives in :mod:`repro.core.scc_kernels`.

Execution routes through the :mod:`repro.backend` registry: each Function
resolves its workload to a cached execution plan (geometry, tile schedule
and backward contraction paths, see :mod:`repro.backend.plan`) and
dispatches to the selected backend — ``"numpy"`` (zero-copy ``as_strided``
patch views; an im2col GEMM forward and planned-einsum backward, the
default) or ``"reference"`` (loop kernels).  Repeated-shape calls reuse the
plan; only the first call of a shape-class pays the ``np.einsum_path``
search and geometry checks.
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


class BatchNorm2d(Function):
    """Training-mode batch normalisation over (N, H, W) per channel.

    A fused kernel (rather than composing mean/var ops) because BN sits in
    every residual block and dominates graph-node count otherwise.  Both
    passes work on the ``(N, C, H*W)`` view: forward takes the per-channel
    mean, then the sum of squares of the centred values, and normalises
    those in place; backward reuses its ``grad_gamma`` / ``grad_beta`` sums
    as the two reductions of ``grad_x``, so each pass reduces twice.  All
    arithmetic stays in the input's dtype.  ``batch_mean`` / ``batch_var``
    (biased) are left on the node for the module's running statistics.
    """

    def forward(
        self,
        x: np.ndarray,
        gamma: np.ndarray,
        beta: np.ndarray,
        eps: float = 1e-5,
    ) -> np.ndarray:
        n, c = x.shape[:2]
        xv = x.reshape(n, c, -1)
        m = xv.shape[0] * xv.shape[2]
        mean = xv.mean(axis=(0, 2))
        xhat = xv - mean[:, None]
        var = np.einsum("ncl,ncl->c", xhat, xhat) / m
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat *= inv_std[:, None]
        out = xhat * gamma.astype(x.dtype, copy=False)[:, None]
        out += beta.astype(x.dtype, copy=False)[:, None]
        self.save_for_backward(xhat, inv_std, gamma)
        self.batch_mean = mean
        self.batch_var = var
        return out.reshape(x.shape)

    def backward(self, grad: np.ndarray):
        xhat, inv_std, gamma = self.saved
        n, c = grad.shape[:2]
        gv = grad.reshape(n, c, -1)
        m = gv.shape[0] * gv.shape[2]
        grad_beta = gv.sum(axis=(0, 2))
        grad_gamma = np.einsum("ncl,ncl->c", gv, xhat)
        # grad_x = gamma * inv_std * (grad - grad_beta / m - xhat * grad_gamma / m)
        grad_x = xhat * (grad_gamma / m)[:, None]
        grad_x += (grad_beta / m)[:, None]
        np.subtract(gv, grad_x, out=grad_x)
        grad_x *= (gamma * inv_std).astype(grad.dtype, copy=False)[:, None]
        results = [grad_x.reshape(grad.shape)]
        if len(self.needs_input_grad) > 1:
            results.append(grad_gamma)
        if len(self.needs_input_grad) > 2:
            results.append(grad_beta)
        return tuple(results)
