"""CNN model zoo: the five architectures of the paper's evaluation
(VGG16/19, MobileNet, ResNet18/50), each buildable in *origin* form
(standard convolutions) or *DSXplore* form (DW + {PW, GPW, SCC} blocks).

``width_mult`` produces reduced-width variants of the same architecture for
CPU-scale training runs; ``width_mult=1.0`` gives the paper's full-size
models for exact FLOPs/params accounting (:mod:`repro.analysis`).
"""
from repro.models.registry import (
    MODEL_BUILDERS,
    available_models,
    build_model,
    build_serving_model,
)
from repro.models.vgg import VGG, build_vgg
from repro.models.resnet import ResNet, build_resnet
from repro.models.mobilenet import MobileNet, build_mobilenet

__all__ = [
    "build_model",
    "build_serving_model",
    "available_models",
    "MODEL_BUILDERS",
    "VGG",
    "build_vgg",
    "ResNet",
    "build_resnet",
    "MobileNet",
    "build_mobilenet",
]
