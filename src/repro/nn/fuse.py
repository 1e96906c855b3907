"""Inference-graph fusion: absorb bias / BN / activation into conv epilogues.

:func:`fuse_inference` rewrites an ``eval()``-mode model in place so each
``Conv2d`` (or SCC layer) followed by its ``BatchNorm2d`` / activation
applies those stages as a **staged epilogue** inside its forward kernel
(the ``epilogue=`` argument of ``conv2d`` and ``scc_forward``, on the same
cached plan the unfused layer uses), per output slab while it is cache-hot —
the intermediate bias/BN/activation tensors are never materialized.  The epilogue replays the exact elementwise op sequence the
unfused module stack composes (see
:class:`~repro.backend.plan.EpilogueArgs`), so fused output == unfused
output **bitwise**.

Scope: fusion only rewrites module sequences whose forward order provably
equals their registration order — ``nn.Sequential`` containers and the
``DepthwiseSeparableBlock`` (whose fixed attribute layout matches its
forward).  Arbitrary modules (e.g. residual blocks applying children out of
order around a skip add) are left alone; their ``Sequential`` sub-stacks
are still fused.

Fused models are **inference-only**: the absorbed BN keeps its frozen
running statistics (it is removed from the module tree, so ``train()``
no longer reaches it), and the fused kernel path engages only under
``no_grad`` eval execution — a fused layer that is run with autograd
enabled falls back to composing the same epilogue with Tensor ops.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend.plan import EpilogueArgs
from repro.nn.conv import Conv2d
from repro.nn.layers import BatchNorm2d, Identity, ReLU, ReLU6
from repro.nn.module import Module, Sequential
from repro.tensor import Tensor

__all__ = ["FusedEpilogue", "fuse_inference", "count_fused"]


@dataclass
class FusedEpilogue:
    """The absorbed post-conv stages of one fused layer.

    Holds live references (the conv's bias Parameter, the absorbed
    BatchNorm2d module), so weight updates through ``load_state_dict``
    flow into the fused execution without re-fusing.
    """

    bias: object | None = None       # the conv's bias Parameter (or None)
    bn: BatchNorm2d | None = None    # absorbed BN, pinned to eval mode
    activation: str | None = None    # None | "relu" | "relu6"

    def kernel_args(self) -> EpilogueArgs:
        """Fresh per-call kernel operands, broadcast-shaped ``(1, C, 1, 1)``.

        The BN affine is derived exactly as the eval-mode module computes
        it — ``scale = gamma / sqrt(running_var + eps)`` applied in the
        ``(x - mean) * scale + beta`` order — so the fused result stays
        bitwise-equal to the composed stack.
        """
        bias = mean = scale = beta = None
        if self.bias is not None:
            bias = self.bias.data.reshape(1, -1, 1, 1)
        if self.bn is not None:
            bn = self.bn
            mean = bn._buffers["running_mean"].reshape(1, -1, 1, 1)
            var = bn._buffers["running_var"].reshape(1, -1, 1, 1)
            scale = bn.weight.data.reshape(1, -1, 1, 1) / np.sqrt(var + bn.eps)
            beta = bn.bias.data.reshape(1, -1, 1, 1)
        return EpilogueArgs(
            bias=bias, mean=mean, scale=scale, beta=beta,
            activation=self.activation,
        )

    def apply_composed(self, out: Tensor) -> Tensor:
        """Composed fallback: the same stages as graph-level Tensor ops
        (used when a fused layer runs in training mode or under autograd)."""
        if self.bias is not None:
            out = out + self.bias.reshape(1, -1, 1, 1)
        if self.bn is not None:
            out = self.bn(out)
        if self.activation == "relu":
            out = out.relu()
        elif self.activation == "relu6":
            out = 6.0 - (6.0 - out.relu()).relu()
        return out


def _activation_name(module: Module) -> str | None:
    if type(module) is ReLU:
        return "relu"
    if type(module) is ReLU6:
        return "relu6"
    return None


def _is_fusable_conv(module: Module) -> bool:
    from repro.core.scc import SlidingChannelConv2d

    return isinstance(module, (Conv2d, SlidingChannelConv2d))


def _attach(conv: Module, bn: BatchNorm2d | None, activation: str | None) -> None:
    if bn is not None:
        bn.eval()
    conv._fused_epilogue = FusedEpilogue(
        bias=conv.bias, bn=bn, activation=activation
    )


def _fuse_sequential(seq: Sequential) -> int:
    fused = 0
    items = list(seq._modules.items())
    i = 0
    while i < len(items):
        _, mod = items[i]
        if not _is_fusable_conv(mod) or getattr(mod, "_fused_epilogue", None):
            i += 1
            continue
        bn: BatchNorm2d | None = None
        activation: str | None = None
        absorbed: list[str] = []
        j = i + 1
        if (
            j < len(items)
            and isinstance(items[j][1], BatchNorm2d)
            and items[j][1].num_features == mod.out_channels
        ):
            bn = items[j][1]
            absorbed.append(items[j][0])
            j += 1
        if j < len(items):
            activation = _activation_name(items[j][1])
            if activation is not None:
                absorbed.append(items[j][0])
                j += 1
        if bn is None and activation is None and mod.bias is None:
            i += 1
            continue  # nothing to absorb: keep the plain conv dispatch
        _attach(mod, bn, activation)
        for name in absorbed:
            setattr(seq, name, Identity())
        fused += 1
        i = j
    return fused


def _fuse_separable(block) -> int:
    fused = 0
    for conv_name, bn_name, act_name in (
        ("depthwise", "bn1", "act1"),
        ("pointwise", "bn2", "act2"),
    ):
        conv = getattr(block, conv_name)
        if not _is_fusable_conv(conv) or getattr(conv, "_fused_epilogue", None):
            continue
        bn = getattr(block, bn_name)
        if not (isinstance(bn, BatchNorm2d) and bn.num_features == conv.out_channels):
            bn = None
        activation = _activation_name(getattr(block, act_name))
        if bn is None and activation is None and conv.bias is None:
            continue
        _attach(conv, bn, activation)
        if bn is not None:
            setattr(block, bn_name, Identity())
        if activation is not None:
            setattr(block, act_name, Identity())
        fused += 1
    return fused


def fuse_inference(model: Module) -> int:
    """Fuse every eligible conv→[BN]→[activation] run in ``model`` in place.

    Returns the number of layers that gained a fused epilogue.  See the
    module docstring for scope and the inference-only caveat.
    """
    from repro.core.blocks import DepthwiseSeparableBlock

    fused = 0
    for _, module in list(model.named_modules()):
        if isinstance(module, Sequential):
            fused += _fuse_sequential(module)
        elif isinstance(module, DepthwiseSeparableBlock):
            fused += _fuse_separable(module)
    return fused


def count_fused(model: Module) -> int:
    """How many layers of ``model`` carry a fused epilogue."""
    return sum(
        1
        for _, m in model.named_modules()
        if getattr(m, "_fused_epilogue", None) is not None
    )
