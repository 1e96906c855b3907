"""VGG16 / VGG19 (CIFAR-style, batch-norm variant).

Origin form stacks standard 3x3 convolutions; factorized (DSXplore) form
replaces every standard conv except the RGB stem with a DW+{PW,GPW,SCC}
block — the paper's conversion rule for linearly-stacked CNNs.
"""
from __future__ import annotations

import numpy as np

from repro import nn
from repro.core.blocks import make_separable_block
from repro.tensor import Tensor

# Channel plans; "M" is a 2x2 max-pool.
VGG_PLANS: dict[str, list] = {
    "vgg16": [64, 64, "M", 128, 128, "M", 256, 256, 256, "M",
              512, 512, 512, "M", 512, 512, 512, "M"],
    "vgg19": [64, 64, "M", 128, 128, "M", 256, 256, 256, 256, "M",
              512, 512, 512, 512, "M", 512, 512, 512, 512, "M"],
}


def scale_width(channels: int, width_mult: float, divisor: int = 8) -> int:
    """Scale a channel count, keeping it a positive multiple of ``divisor``
    so every cg in {1,2,4,8} stays valid on reduced models."""
    if width_mult == 1.0:
        return channels
    return max(divisor, int(round(channels * width_mult / divisor)) * divisor)


class VGG(nn.Module):
    """VGG backbone + global-average-pool classifier head."""

    def __init__(
        self,
        plan: list,
        num_classes: int = 10,
        in_channels: int = 3,
        scheme: str | None = None,
        cg: int = 2,
        co: float = 0.5,
        width_mult: float = 1.0,
        impl: str = "dsxplore",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        layers: list[nn.Module] = []
        c_in = in_channels
        first_conv = True
        for item in plan:
            if item == "M":
                layers.append(nn.MaxPool2d(2))
                continue
            c_out = scale_width(int(item), width_mult)
            if scheme is None or first_conv:
                layers.append(nn.Conv2d(c_in, c_out, 3, padding=1, bias=False, rng=rng))
                layers.append(nn.BatchNorm2d(c_out))
                layers.append(nn.ReLU())
            else:
                layers.append(
                    make_separable_block(
                        c_in, c_out, scheme=scheme, cg=cg, co=co, impl=impl, rng=rng
                    )
                )
            first_conv = False
            c_in = c_out
        self.features = nn.Sequential(*layers)
        self.pool = nn.GlobalAvgPool2d()
        self.classifier = nn.Linear(c_in, num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.classifier(self.pool(self.features(x)))


def build_vgg(
    depth: str = "vgg16",
    num_classes: int = 10,
    in_channels: int = 3,
    scheme: str | None = None,
    cg: int = 2,
    co: float = 0.5,
    width_mult: float = 1.0,
    impl: str = "dsxplore",
    rng: np.random.Generator | None = None,
) -> VGG:
    if depth not in VGG_PLANS:
        raise ValueError(f"unknown VGG depth {depth!r}; available: {sorted(VGG_PLANS)}")
    return VGG(
        VGG_PLANS[depth],
        num_classes=num_classes,
        in_channels=in_channels,
        scheme=scheme,
        cg=cg,
        co=co,
        width_mult=width_mult,
        impl=impl,
        rng=rng,
    )
