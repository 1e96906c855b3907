"""Batching, shuffling, splitting and light augmentation."""
from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.data.synthetic import SyntheticImageDataset
from repro.utils.pad import pad2d
from repro.utils.rng import get_rng


def train_test_split(
    dataset: SyntheticImageDataset, test_fraction: float = 0.2, seed: int = 0
) -> tuple[SyntheticImageDataset, SyntheticImageDataset]:
    """Deterministic shuffled split."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = len(dataset)
    order = get_rng(seed).permutation(n)
    n_test = max(1, int(round(n * test_fraction)))
    test_idx, train_idx = order[:n_test], order[n_test:]
    return (
        SyntheticImageDataset(
            dataset.images[train_idx], dataset.labels[train_idx], dataset.num_classes
        ),
        SyntheticImageDataset(
            dataset.images[test_idx], dataset.labels[test_idx], dataset.num_classes
        ),
    )


def _augment(batch: np.ndarray, rng: np.random.Generator, pad: int = 2) -> np.ndarray:
    """Random horizontal flip + pad-and-crop jitter (CIFAR-style)."""
    n, _, h, w = batch.shape
    out = batch.copy()
    flip = rng.random(n) < 0.5
    out[flip] = out[flip, :, :, ::-1]
    padded = pad2d(out, pad)
    dy = rng.integers(0, 2 * pad + 1, size=n)
    dx = rng.integers(0, 2 * pad + 1, size=n)
    for i in range(n):
        out[i] = padded[i, :, dy[i] : dy[i] + h, dx[i] : dx[i] + w]
    return out


class DataLoader:
    """Mini-batch iterator over an in-memory dataset.

    Deterministic per epoch given the seed; reshuffles each epoch the way
    ``torch.utils.data.DataLoader(shuffle=True)`` does.
    """

    def __init__(
        self,
        dataset: SyntheticImageDataset,
        batch_size: int = 32,
        shuffle: bool = True,
        augment: bool = False,
        drop_last: bool = False,
        seed: int = 0,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.augment = augment
        self.drop_last = drop_last
        self._rng = get_rng(seed)
        self._epoch = 0

    def __len__(self) -> int:
        n = len(self.dataset)
        return n // self.batch_size if self.drop_last else (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        order = self._rng.permutation(n) if self.shuffle else np.arange(n)
        self._epoch += 1
        for start in range(0, n, self.batch_size):
            idx = order[start : start + self.batch_size]
            if self.drop_last and idx.shape[0] < self.batch_size:
                return
            images = self.dataset.images[idx]
            if self.augment:
                images = _augment(images, self._rng)
            yield images, self.dataset.labels[idx]
