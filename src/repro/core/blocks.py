"""Depthwise-separable blocks and the drop-in model conversion pass.

The paper evaluates three block flavours built on the same DW stage:

- ``DW+PW`` — the MobileNet/Xception baseline (paper Eq. 2+3),
- ``DW+GPW-cgX`` — grouped pointwise, no overlap,
- ``DW+SCC-cgX-coY%`` — the paper's contribution.

:func:`convert_model` is the "drop-in replacement" integration: it walks any
:class:`~repro.nn.module.Module` tree and swaps each standard convolution
(kernel > 1, groups == 1) for a DW + <pointwise-stage> block with the same
shape signature, skipping the RGB stem and layers too narrow to group —
matching the paper's rule that cg must respect the smallest channel count
and that already-lightweight 1x1 convolutions (e.g. ResNet bottleneck PWs,
downsample shortcuts) are left alone.
"""
from __future__ import annotations

import numpy as np

from repro import nn
from repro.core.scc import SlidingChannelConv2d
from repro.tensor import Tensor

SCHEMES = ("pw", "gpw", "scc")


def _pointwise_stage(
    scheme: str,
    in_channels: int,
    out_channels: int,
    cg: int,
    co: float,
    bias: bool,
    impl: str,
    rng: np.random.Generator | None,
) -> nn.Module:
    if scheme == "pw":
        return nn.PointwiseConv2d(in_channels, out_channels, bias=bias, rng=rng)
    if scheme == "gpw":
        return nn.GroupPointwiseConv2d(in_channels, out_channels, groups=cg,
                                       bias=bias, rng=rng)
    if scheme == "scc":
        return SlidingChannelConv2d(
            in_channels, out_channels, cg=cg, co=co, bias=bias, impl=impl, rng=rng
        )
    raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


class DepthwiseSeparableBlock(nn.Module):
    """DW (spatial) + BN + ReLU + {PW|GPW|SCC} (channel fusion) + BN + ReLU."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        kernel_size: int = 3,
        scheme: str = "pw",
        cg: int = 2,
        co: float = 0.5,
        with_bn: bool = True,
        impl: str = "dsxplore",
        final_act: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.scheme = scheme
        padding = kernel_size // 2
        self.depthwise = nn.DepthwiseConv2d(
            in_channels, kernel_size=kernel_size, stride=stride, padding=padding,
            rng=rng,
        )
        self.bn1 = nn.BatchNorm2d(in_channels) if with_bn else nn.Identity()
        self.act1 = nn.ReLU()
        self.pointwise = _pointwise_stage(
            scheme, in_channels, out_channels, cg, co, bias=not with_bn, impl=impl,
            rng=rng,
        )
        self.bn2 = nn.BatchNorm2d(out_channels) if with_bn else nn.Identity()
        # final_act=False keeps the block linear at its output, for use as a
        # conv replacement feeding a residual add.
        self.act2 = nn.ReLU() if final_act else nn.Identity()

    def forward(self, x: Tensor) -> Tensor:
        x = nn.bn_act(self.bn1, self.act1, self.depthwise(x))
        return nn.bn_act(self.bn2, self.act2, self.pointwise(x))

    def __repr__(self) -> str:
        return f"DepthwiseSeparableBlock(scheme={self.scheme})\n" + super().__repr__()


def make_separable_block(
    in_channels: int,
    out_channels: int,
    stride: int = 1,
    scheme: str = "scc",
    cg: int = 2,
    co: float = 0.5,
    kernel_size: int = 3,
    impl: str = "dsxplore",
    final_act: bool = True,
    rng: np.random.Generator | None = None,
) -> DepthwiseSeparableBlock:
    """Factory used by the model zoo and by :func:`convert_model`."""
    return DepthwiseSeparableBlock(
        in_channels,
        out_channels,
        stride=stride,
        kernel_size=kernel_size,
        scheme=scheme,
        cg=cg,
        co=co,
        impl=impl,
        final_act=final_act,
        rng=rng,
    )


def _should_convert(module: nn.Conv2d, min_channels: int, cg: int) -> bool:
    return (
        module.kernel_size > 1
        and module.groups == 1
        and module.in_channels >= min_channels
        and module.in_channels % cg == 0
        and module.out_channels % cg == 0
    )


def convert_model(
    model: nn.Module,
    scheme: str = "scc",
    cg: int = 2,
    co: float = 0.5,
    min_channels: int = 8,
    impl: str = "dsxplore",
    rng: np.random.Generator | None = None,
) -> tuple[nn.Module, int]:
    """Replace standard convolutions with DW+{PW,GPW,SCC} blocks, in place.

    Returns ``(model, n_replaced)``.  Rules (paper Section V-B):

    - only standard convolutions (kernel > 1, ungrouped) are replaced;
    - the RGB stem (``in_channels < min_channels``) is kept;
    - 1x1 convolutions (bottleneck PWs, residual downsamples) are kept —
      they are already lightweight;
    - SCC / GPW pointwise stages inside existing separable blocks can be
      swapped by building the model with the target scheme instead
      (see :mod:`repro.models.mobilenet`).
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    replaced = 0
    for _, parent in model.named_modules():
        for child_name, child in list(parent._modules.items()):
            if isinstance(child, nn.Conv2d) and not isinstance(child, nn.DepthwiseConv2d):
                if _should_convert(child, min_channels, cg):
                    block = make_separable_block(
                        child.in_channels,
                        child.out_channels,
                        stride=child.stride,
                        scheme=scheme,
                        cg=cg,
                        co=co,
                        kernel_size=child.kernel_size,
                        impl=impl,
                        rng=rng,
                    )
                    setattr(parent, child_name, block)
                    replaced += 1
    return model, replaced


def set_scc_impl(model: nn.Module, impl: str, backward_design: str | None = None) -> int:
    """Switch the execution strategy of every SCC layer in ``model``.

    This is how the runtime benchmarks compare Pytorch-Base / Pytorch-Opt /
    DSXplore on the *same trained weights*.  Returns the number of layers
    switched.
    """
    count = 0
    for _, module in model.named_modules():
        if isinstance(module, SlidingChannelConv2d):
            module.set_impl(impl, backward_design)
            count += 1
    return count
