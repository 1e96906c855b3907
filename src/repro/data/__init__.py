"""Synthetic datasets standing in for CIFAR-10 / ImageNet (offline substitution).

The accuracy claims the paper makes are *relative*: SCC's channel overlap
recovers cross-channel information that GPW's hard grouping discards, so
SCC-cgX-coY beats GPW-cgX at identical FLOPs/params.  The generator in
:mod:`repro.data.synthetic` manufactures exactly that situation: class
identity is encoded in *cross-channel mixing structure* (which channel
combinations co-activate), with per-channel marginal statistics matched
across classes, so a model that cannot fuse information across channel-group
boundaries is measurably handicapped.
"""
from repro.data.synthetic import SyntheticImageDataset, make_dataset
from repro.data.cifar_like import cifar10_like
from repro.data.imagenet_like import imagenet_like
from repro.data.loaders import DataLoader, train_test_split

__all__ = [
    "SyntheticImageDataset",
    "make_dataset",
    "cifar10_like",
    "imagenet_like",
    "DataLoader",
    "train_test_split",
]
