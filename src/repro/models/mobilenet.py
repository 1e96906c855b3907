"""MobileNet-V1: the canonical DW+PW network (paper's detailed-study model).

The pointwise stage of every separable block is selectable:
``scheme="pw"`` (origin baseline), ``"gpw"`` (DW+GPW-cgX rows of Table IV),
``"scc"`` (DW+SCC-cgX-coY% rows).
"""
from __future__ import annotations

import numpy as np

from repro import nn
from repro.core.blocks import DepthwiseSeparableBlock
from repro.models.vgg import scale_width
from repro.tensor import Tensor

# (out_channels, stride) per separable block — standard MobileNet-V1 plan.
MOBILENET_PLAN: list[tuple[int, int]] = [
    (64, 1),
    (128, 2), (128, 1),
    (256, 2), (256, 1),
    (512, 2), (512, 1), (512, 1), (512, 1), (512, 1), (512, 1),
    (1024, 2), (1024, 1),
]


class MobileNet(nn.Module):
    def __init__(
        self,
        num_classes: int = 10,
        in_channels: int = 3,
        scheme: str = "pw",
        cg: int = 2,
        co: float = 0.5,
        width_mult: float = 1.0,
        imagenet_stem: bool = False,
        impl: str = "dsxplore",
        num_blocks: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        stem_width = scale_width(32, width_mult)
        self.stem = nn.Sequential(
            nn.Conv2d(
                in_channels, stem_width, 3,
                stride=2 if imagenet_stem else 1, padding=1, bias=False, rng=rng,
            ),
            nn.BatchNorm2d(stem_width),
            nn.ReLU(),
        )
        blocks = []
        c_in = stem_width
        # num_blocks truncates the plan: depth-reduced variants for
        # CPU-scale experiments (width_mult reduces width the same way).
        plan = MOBILENET_PLAN if num_blocks is None else MOBILENET_PLAN[:num_blocks]
        for c_out, stride in plan:
            c_out = scale_width(c_out, width_mult)
            blocks.append(
                DepthwiseSeparableBlock(
                    c_in, c_out, stride=stride, scheme=scheme, cg=cg, co=co,
                    impl=impl, rng=rng,
                )
            )
            c_in = c_out
        self.blocks = nn.Sequential(*blocks)
        self.pool = nn.GlobalAvgPool2d()
        self.classifier = nn.Linear(c_in, num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        conv, bn, act = self.stem
        x = nn.bn_act(bn, act, conv(x))
        return self.classifier(self.pool(self.blocks(x)))


def build_mobilenet(
    num_classes: int = 10,
    in_channels: int = 3,
    scheme: str | None = "pw",
    cg: int = 2,
    co: float = 0.5,
    width_mult: float = 1.0,
    imagenet_stem: bool = False,
    impl: str = "dsxplore",
    num_blocks: int | None = None,
    rng: np.random.Generator | None = None,
) -> MobileNet:
    # "origin" MobileNet *is* DW+PW, so scheme=None maps to "pw".
    return MobileNet(
        num_classes=num_classes,
        in_channels=in_channels,
        scheme=scheme or "pw",
        cg=cg,
        co=co,
        width_mult=width_mult,
        imagenet_stem=imagenet_stem,
        impl=impl,
        num_blocks=num_blocks,
        rng=rng,
    )
