"""Neural-network layer library over :mod:`repro.tensor` (replaces torch.nn).

Layout convention is NCHW throughout.  Layers hold :class:`Parameter` leaves;
:class:`Module` provides the traversal (``parameters``, ``named_modules``,
``train``/``eval``) that the trainer, the FLOPs counter
(:mod:`repro.analysis`), and the model-conversion pass
(:func:`repro.core.blocks.convert_model`) all walk.
"""
from repro.nn.module import Module, Parameter, Sequential, ModuleList
from repro.nn.conv import Conv2d, PointwiseConv2d, DepthwiseConv2d, GroupPointwiseConv2d
from repro.nn.layers import (
    Linear,
    BatchNorm2d,
    ReLU,
    ReLU6,
    MaxPool2d,
    AvgPool2d,
    GlobalAvgPool2d,
    Flatten,
    Dropout,
    Identity,
    bn_act,
)
from repro.nn.fuse import FusedEpilogue, count_fused, fuse_inference
from repro.nn import functional, init

__all__ = [
    "FusedEpilogue",
    "count_fused",
    "fuse_inference",
    "Module",
    "Parameter",
    "Sequential",
    "ModuleList",
    "Conv2d",
    "PointwiseConv2d",
    "DepthwiseConv2d",
    "GroupPointwiseConv2d",
    "Linear",
    "BatchNorm2d",
    "ReLU",
    "ReLU6",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Dropout",
    "Identity",
    "bn_act",
    "functional",
    "init",
]
