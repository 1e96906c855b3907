"""Autograd integration of SCC: Function + the drop-in nn.Module.

This is the reproduction of the paper's "integrated our SCC design with the
original Pytorch framework as the drop-in replacement of the existing DSCs":
:class:`SlidingChannelConv2d` slots anywhere a
:class:`~repro.nn.conv.PointwiseConv2d` / GPW module does, and trains
end-to-end through :mod:`repro.tensor` exactly like the CUDA kernel trains
through ``torch.autograd.Function``.  The kernels themselves are the
registry's ``scc_forward`` / ``scc_backward`` (:mod:`repro.backend`).
"""
from __future__ import annotations

import math

import numpy as np

from repro.backend import (
    REGISTRY,
    KernelStats,
    SCCPlan,
    current_backend_override,
    get_kernel,
    scc_plan,
)
from repro.core.channel_map import SCCConfig
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor
from repro.tensor.function import Function
from repro.utils.rng import get_rng


class SCCFunction(Function):
    """Differentiable SCC op over the registry kernels.

    Dispatches like :class:`~repro.tensor.conv_ops.Conv2d`: ``forward``
    calls the ``scc_forward`` kernel on the shared plan and keeps the
    returned context on this graph node, which ``backward`` hands to
    ``scc_backward``.  Each call owns its context, so one layer can run
    many forwards before any backward.  The node records the thread's
    :func:`~repro.backend.backend_override` at forward, and ``backward``
    resolves under that same override.
    """

    def forward(
        self,
        x: np.ndarray,
        w: np.ndarray,
        plan: SCCPlan,
        impl: str,
        backward_design: str,
        stats: KernelStats,
    ) -> np.ndarray:
        self.override = current_backend_override()
        out, ctx = REGISTRY.get_default("scc_forward", self.override)(
            plan, x, w, strategy=impl, stats=stats
        )
        self.plan = plan
        self.ctx = ctx
        self.impl = impl
        self.backward_design = backward_design
        self.stats = stats
        return out

    def backward(self, grad_output: np.ndarray):
        need_x, need_w = self.needs_input_grad
        return REGISTRY.get_default("scc_backward", self.override)(
            self.plan, self.ctx, grad_output,
            strategy=self.impl, backward_design=self.backward_design,
            need_input_grad=need_x, need_weight_grad=need_w, stats=self.stats,
        )


class SlidingChannelConv2d(Module):
    """Sliding-channel convolution layer (the paper's SCC kernel).

    Drop-in replacement for the pointwise stage of a depthwise-separable
    block.  Weight shape is ``(out_channels, group_width)`` — each filter
    owns one scalar per channel in its sliding window.

    Parameters
    ----------
    cg:
        number of channel groups; each filter reads ``in_channels / cg``
        input channels.
    co:
        overlap ratio between adjacent filters' windows, in ``[0, 1)``.
    impl:
        execution strategy: ``"dsxplore"`` (fused, default),
        ``"conv_stack"`` (*Pytorch-Opt*), or ``"channel_stack"``
        (*Pytorch-Base*).  All three compute identical math; see the SCC
        section of :mod:`repro.backend.numpy_backend`.
    backward_design:
        for ``impl="dsxplore"`` only: ``"input_centric"`` (default) or
        ``"output_centric"`` (the DSXplore-Var ablation).

    The layer never names its kernel backend: it dispatches ``"default"``,
    which ``REPRO_BACKEND`` (whole process) or
    :func:`~repro.backend.backend_override` (one thread) redirect.

    ``plan`` is the shared :class:`~repro.backend.plan.SCCPlan` of the
    layer's configuration, and ``stats`` accumulates the
    :class:`~repro.backend.stats.KernelStats` counters of every kernel call
    the layer makes.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        cg: int,
        co: float,
        bias: bool = True,
        impl: str = "dsxplore",
        backward_design: str = "input_centric",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.config = SCCConfig(in_channels, out_channels, cg, co)
        self.plan = scc_plan(self.config)
        self.plan.check(impl, backward_design)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.cg = cg
        self.co = co
        self.impl = impl
        self.backward_design = backward_design
        self.stats = KernelStats()

        gen = rng if rng is not None else get_rng()
        gw = self.config.group_width
        std = math.sqrt(2.0 / gw)
        self.weight = Parameter((gen.standard_normal((out_channels, gw)) * std).astype(np.float32))
        if bias:
            bound = 1.0 / math.sqrt(gw)
            self.bias = Parameter(gen.uniform(-bound, bound, size=(out_channels,)).astype(np.float32))
        else:
            self.bias = None
        # Set by repro.nn.fuse.fuse_inference: absorbed bias/BN/activation
        # stages applied in one pass over the SCC forward's output.
        self._fused_epilogue = None

    def _scc(self, x: Tensor) -> Tensor:
        return SCCFunction.apply(
            x, self.weight, self.plan, self.impl, self.backward_design,
            self.stats,
        )

    def forward(self, x: Tensor) -> Tensor:
        ep = self._fused_epilogue
        if ep is not None:
            return self._forward_fused(x, ep)
        out = self._scc(x)
        if self.bias is not None:
            out = out + self.bias.reshape(1, -1, 1, 1)
        return out

    def _forward_fused(self, x: Tensor, ep) -> Tensor:
        from repro.tensor.tensor import is_grad_enabled

        if not self.training and not is_grad_enabled():
            out, _ = get_kernel("scc_forward")(
                self.plan, x.data, self.weight.data, strategy=self.impl,
                stats=self.stats, epilogue=ep.kernel_args(),
            )
            return Tensor(out)
        return ep.apply_composed(self._scc(x))

    @property
    def cyclic_dist(self) -> int:
        return self.plan.cyclic_dist

    def set_impl(self, impl: str, backward_design: str | None = None) -> None:
        """Swap execution strategy in place (weights unchanged)."""
        if backward_design is None:
            backward_design = self.backward_design
        self.plan.check(impl, backward_design)
        self.impl = impl
        self.backward_design = backward_design

    def __repr__(self) -> str:
        return (
            f"SlidingChannelConv2d({self.in_channels}, {self.out_channels}, "
            f"cg={self.cg}, co={self.co:.2f}, impl={self.impl}, "
            f"bias={self.bias is not None})"
        )
