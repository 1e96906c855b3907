"""ResNet18 (BasicBlock) / ResNet50 (Bottleneck), CIFAR- and ImageNet-style.

Factorized (DSXplore) form follows the paper's rule for residual CNNs: only
the standard 3x3 convolutions inside blocks are replaced with DW+{PW,GPW,SCC}
blocks; the already-lightweight 1x1 bottleneck and downsample convolutions
are kept (Section V-C: "these blocks include additional convolutions that
are already lightweight ... and no need to be replaced").
"""
from __future__ import annotations

import numpy as np

from repro import nn
from repro.core.blocks import make_separable_block
from repro.models.vgg import scale_width
from repro.tensor import Tensor


def _conv3x3(
    c_in: int,
    c_out: int,
    stride: int,
    scheme: str | None,
    cg: int,
    co: float,
    impl: str,
    final_act: bool,
    rng: np.random.Generator | None,
) -> nn.Module:
    """Standard conv3x3+BN (+ReLU) or its DW+X factorized replacement."""
    if scheme is None:
        mods: list[nn.Module] = [
            nn.Conv2d(c_in, c_out, 3, stride=stride, padding=1, bias=False, rng=rng),
            nn.BatchNorm2d(c_out),
        ]
        if final_act:
            mods.append(nn.ReLU())
        return nn.Sequential(*mods)
    return make_separable_block(
        c_in, c_out, stride=stride, scheme=scheme, cg=cg, co=co,
        impl=impl, final_act=final_act, rng=rng,
    )


class BasicBlock(nn.Module):
    """Two 3x3 convs + identity/1x1-projection shortcut (ResNet18/34)."""

    expansion = 1

    def __init__(
        self,
        c_in: int,
        c_out: int,
        stride: int = 1,
        scheme: str | None = None,
        cg: int = 2,
        co: float = 0.5,
        impl: str = "dsxplore",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.conv1 = _conv3x3(c_in, c_out, stride, scheme, cg, co, impl, True, rng)
        self.conv2 = _conv3x3(c_out, c_out, 1, scheme, cg, co, impl, False, rng)
        if stride != 1 or c_in != c_out:
            self.shortcut = nn.Sequential(
                nn.Conv2d(c_in, c_out, 1, stride=stride, bias=False, rng=rng),
                nn.BatchNorm2d(c_out),
            )
        else:
            self.shortcut = nn.Identity()
        self.act = nn.ReLU()

    def forward(self, x: Tensor) -> Tensor:
        return self.act(self.conv2(self.conv1(x)) + self.shortcut(x))


class Bottleneck(nn.Module):
    """1x1 reduce + 3x3 + 1x1 expand (ResNet50+).  Only the middle 3x3 is
    factorized; the dual PW convolutions stay (paper Section V-C)."""

    expansion = 4

    def __init__(
        self,
        c_in: int,
        width: int,
        stride: int = 1,
        scheme: str | None = None,
        cg: int = 2,
        co: float = 0.5,
        impl: str = "dsxplore",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        c_out = width * self.expansion
        self.reduce = nn.Sequential(
            nn.Conv2d(c_in, width, 1, bias=False, rng=rng),
            nn.BatchNorm2d(width),
            nn.ReLU(),
        )
        self.conv3x3 = _conv3x3(width, width, stride, scheme, cg, co, impl, True, rng)
        self.expand = nn.Sequential(
            nn.Conv2d(width, c_out, 1, bias=False, rng=rng),
            nn.BatchNorm2d(c_out),
        )
        if stride != 1 or c_in != c_out:
            self.shortcut = nn.Sequential(
                nn.Conv2d(c_in, c_out, 1, stride=stride, bias=False, rng=rng),
                nn.BatchNorm2d(c_out),
            )
        else:
            self.shortcut = nn.Identity()
        self.act = nn.ReLU()

    def forward(self, x: Tensor) -> Tensor:
        out = self.expand(self.conv3x3(self.reduce(x)))
        return self.act(out + self.shortcut(x))


RESNET_PLANS = {
    "resnet18": (BasicBlock, [2, 2, 2, 2]),
    "resnet50": (Bottleneck, [3, 4, 6, 3]),
}


class ResNet(nn.Module):
    def __init__(
        self,
        block: type,
        layers: list[int],
        num_classes: int = 10,
        in_channels: int = 3,
        scheme: str | None = None,
        cg: int = 2,
        co: float = 0.5,
        width_mult: float = 1.0,
        imagenet_stem: bool = False,
        impl: str = "dsxplore",
        stage_blocks: list[int] | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if stage_blocks is not None:
            # Depth-reduced variant for CPU-scale experiments.
            if len(stage_blocks) > len(layers) or any(b < 1 for b in stage_blocks):
                raise ValueError(
                    f"stage_blocks must be <= {len(layers)} positive stage sizes, "
                    f"got {stage_blocks}"
                )
            layers = list(stage_blocks)
        base = scale_width(64, width_mult)
        if imagenet_stem:
            self.stem = nn.Sequential(
                nn.Conv2d(in_channels, base, 7, stride=2, padding=3, bias=False,
                          rng=rng),
                nn.BatchNorm2d(base),
                nn.ReLU(),
                nn.MaxPool2d(3, stride=2, padding=1),
            )
        else:
            self.stem = nn.Sequential(
                nn.Conv2d(in_channels, base, 3, padding=1, bias=False, rng=rng),
                nn.BatchNorm2d(base),
                nn.ReLU(),
            )
        kwargs = dict(scheme=scheme, cg=cg, co=co, impl=impl, rng=rng)
        stages = []
        c_in = base
        for i, n_blocks in enumerate(layers):
            width = scale_width(64 * (2**i), width_mult)
            stride = 1 if i == 0 else 2
            blocks = []
            for b in range(n_blocks):
                blocks.append(block(c_in, width, stride=stride if b == 0 else 1, **kwargs))
                c_in = width * block.expansion
            stages.append(nn.Sequential(*blocks))
        self.stages = nn.Sequential(*stages)
        self.pool = nn.GlobalAvgPool2d()
        self.classifier = nn.Linear(c_in, num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.classifier(self.pool(self.stages(self.stem(x))))


def build_resnet(
    depth: str = "resnet18",
    num_classes: int = 10,
    in_channels: int = 3,
    scheme: str | None = None,
    cg: int = 2,
    co: float = 0.5,
    width_mult: float = 1.0,
    imagenet_stem: bool = False,
    impl: str = "dsxplore",
    stage_blocks: list[int] | None = None,
    rng: np.random.Generator | None = None,
) -> ResNet:
    if depth not in RESNET_PLANS:
        raise ValueError(f"unknown ResNet depth {depth!r}; available: {sorted(RESNET_PLANS)}")
    block, layers = RESNET_PLANS[depth]
    return ResNet(
        block,
        layers,
        num_classes=num_classes,
        in_channels=in_channels,
        scheme=scheme,
        cg=cg,
        co=co,
        width_mult=width_mult,
        imagenet_stem=imagenet_stem,
        impl=impl,
        stage_blocks=stage_blocks,
        rng=rng,
    )
