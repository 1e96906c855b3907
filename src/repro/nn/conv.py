"""Convolution modules: the existing factorized-kernel taxonomy (paper Fig. 1).

- :class:`Conv2d` — standard / grouped convolution (Fig. 1a, 1c),
- :class:`PointwiseConv2d` — PW, 1x1 standard conv (Fig. 1b),
- :class:`DepthwiseConv2d` — DW, groups == channels (Fig. 1d),
- :class:`GroupPointwiseConv2d` — GPW, grouped 1x1 (Fig. 1e).

The paper's new kernel, SCC, lives in :mod:`repro.core.scc` and is a drop-in
peer of these modules.  No module names its kernel backend: each dispatches
the :mod:`repro.backend` registry's ``"default"``, which ``REPRO_BACKEND``
(whole process) or :func:`~repro.backend.backend_override` (one thread)
redirect.
"""
from __future__ import annotations

import numpy as np

from repro.backend import conv2d_plan, get_kernel
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor
from repro.tensor import conv_ops
from repro.tensor.tensor import is_grad_enabled


class Conv2d(Module):
    """Standard / grouped 2D convolution module (NCHW)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if in_channels % groups or out_channels % groups:
            raise ValueError(
                f"groups={groups} must divide in_channels={in_channels} "
                f"and out_channels={out_channels}"
            )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        wshape = (out_channels, in_channels // groups, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_normal(wshape, rng=rng))
        if bias:
            fan_in = (in_channels // groups) * kernel_size * kernel_size
            self.bias = Parameter(init.uniform_bias((out_channels,), fan_in, rng=rng))
        else:
            self.bias = None
        # Set by repro.nn.fuse.fuse_inference: absorbed bias/BN/activation
        # stages applied as a staged kernel epilogue on the inference path.
        self._fused_epilogue = None

    def _conv(self, x: Tensor) -> Tensor:
        return conv_ops.Conv2d.apply(
            x, self.weight, stride=self.stride, padding=self.padding,
            groups=self.groups,
        )

    def forward(self, x: Tensor) -> Tensor:
        ep = self._fused_epilogue
        if ep is not None:
            return self._forward_fused(x, ep)
        out = self._conv(x)
        if self.bias is not None:
            out = out + self.bias.reshape(1, -1, 1, 1)
        return out

    def _forward_fused(self, x: Tensor, ep) -> Tensor:
        if not self.training and not is_grad_enabled():
            plan = conv2d_plan(
                x.shape, self.weight.shape, self.stride, self.padding,
                self.groups, x.data.dtype,
            )
            out, _ = get_kernel("conv2d")(
                plan, x.data, self.weight.data, epilogue=ep.kernel_args()
            )
            return Tensor(out)
        return ep.apply_composed(self._conv(x))

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
            f"s={self.stride}, p={self.padding}, g={self.groups}, "
            f"bias={self.bias is not None})"
        )


class PointwiseConv2d(Conv2d):
    """PW convolution: 1x1 standard conv fusing all input channels."""

    def __init__(self, in_channels: int, out_channels: int, bias: bool = True,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(in_channels, out_channels, kernel_size=1, bias=bias, rng=rng)


class DepthwiseConv2d(Conv2d):
    """DW convolution: per-channel spatial conv (GC with groups == Cin)."""

    def __init__(
        self,
        channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 1,
        bias: bool = False,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(
            channels,
            channels,
            kernel_size=kernel_size,
            stride=stride,
            padding=padding,
            groups=channels,
            bias=bias,
            rng=rng,
        )


class GroupPointwiseConv2d(Conv2d):
    """GPW convolution: grouped 1x1 conv (ShuffleNet-style, paper Fig. 1e)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        groups: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(
            in_channels, out_channels, kernel_size=1, groups=groups, bias=bias,
            rng=rng,
        )
