"""The paper's primary contribution: Sliding-Channel Convolution (SCC).

Layout:

- :mod:`repro.core.channel_map` — window algebra and the channel-cycle
  discovery of paper Algorithm 1 (plus the Algorithm-2 index-reuse helper),
- :mod:`repro.core.scc` — autograd Function + the
  :class:`~repro.core.scc.SlidingChannelConv2d` module over the registry's
  ``scc_forward`` / ``scc_backward`` kernels, which implement the three
  execution strategies the paper evaluates (channel-stack /
  convolution-stack+CC / fused DSXplore kernel) with both backward designs
  (output-centric "push with atomics" and input-centric "pull"); see
  :mod:`repro.backend.numpy_backend`,
- :mod:`repro.core.blocks` — DW+{PW,GPW,SCC} depthwise-separable blocks and
  the drop-in model-conversion pass,
- :mod:`repro.core.design_space` — (cg, co) design-space enumeration, the
  "Xplore" part.
"""
from repro.core.channel_map import (
    SCCConfig,
    compute_channel_cycle,
    channel_windows,
    window_segments,
    cyclic_distance,
)
from repro.core.scc import SlidingChannelConv2d, SCCFunction
from repro.core.blocks import (
    DepthwiseSeparableBlock,
    make_separable_block,
    convert_model,
)
from repro.core.design_space import enumerate_configs, pareto_front, DesignPoint
from repro.core.shift import ShiftConv2d, ShiftSCCBlock, shift_offsets
from repro.core.pruning import SCCPruner, PruningReport

__all__ = [
    "ShiftConv2d",
    "ShiftSCCBlock",
    "shift_offsets",
    "SCCPruner",
    "PruningReport",
    "SCCConfig",
    "compute_channel_cycle",
    "channel_windows",
    "window_segments",
    "cyclic_distance",
    "SlidingChannelConv2d",
    "SCCFunction",
    "DepthwiseSeparableBlock",
    "make_separable_block",
    "convert_model",
    "enumerate_configs",
    "pareto_front",
    "DesignPoint",
]
