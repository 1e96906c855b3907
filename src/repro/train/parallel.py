"""Simulated data-parallel training (the paper's multi-GPU setting).

Executes the exact data-parallel algorithm — shard the batch across ``K``
virtual devices, compute gradients per shard, all-reduce (average), take one
synchronous step — on one CPU, device by device.  The *math* is identical to
K-GPU synchronous SGD (verified in tests against single-device large-batch
training); the *time* a real K-GPU run would take is modelled by
:mod:`repro.gpusim.multigpu`, which is what benchmark Fig. 14 reports.
"""
from __future__ import annotations

import numpy as np

from repro import nn
from repro.tensor import Tensor
from repro.train.loss import cross_entropy
from repro.train.optim import SGD


class DataParallelTrainer:
    """Synchronous data-parallel SGD over ``num_devices`` virtual devices."""

    def __init__(
        self,
        model: nn.Module,
        num_devices: int = 2,
        lr: float = 0.05,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ) -> None:
        if num_devices < 1:
            raise ValueError(f"num_devices must be >= 1, got {num_devices}")
        self.model = model
        self.num_devices = num_devices
        self.optimizer = SGD(
            model.parameters(), lr=lr, momentum=momentum, weight_decay=weight_decay
        )
        self.params = list(model.parameters())

    def _shard(self, images: np.ndarray, labels: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        n = images.shape[0]
        k = self.num_devices
        if n < k:
            raise ValueError(f"batch of {n} cannot be sharded across {k} devices")
        bounds = np.linspace(0, n, k + 1).astype(int)
        return [
            (images[bounds[i] : bounds[i + 1]], labels[bounds[i] : bounds[i + 1]])
            for i in range(k)
        ]

    def train_step(self, images: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
        """One globally-synchronous step; returns (mean loss, accuracy)."""
        self.model.train()
        shards = self._shard(images, labels)
        n_total = images.shape[0]
        # Gradient accumulators == the all-reduce buffer.
        reduced = [np.zeros_like(p.data) for p in self.params]
        losses, correct = [], 0
        for shard_images, shard_labels in shards:
            self.optimizer.zero_grad()
            logits = self.model(Tensor(shard_images))
            # Weight each shard by its size so uneven shards still reproduce
            # the exact full-batch gradient.
            loss = cross_entropy(logits, shard_labels)
            scale = shard_labels.shape[0] / n_total
            loss.backward()
            for buf, p in zip(reduced, self.params):
                if p.grad is not None:
                    buf += scale * p.grad
            losses.append(float(loss.data) * scale)
            correct += int((logits.data.argmax(axis=1) == shard_labels).sum())
        # "All-reduce" complete: install averaged gradients, step once.
        for buf, p in zip(reduced, self.params):
            p.grad = buf
        self.optimizer.step()
        return float(sum(losses)), correct / n_total

    def gradient_bytes(self) -> int:
        """Bytes all-reduced per step (input to the ring-allreduce model)."""
        return int(sum(p.data.nbytes for p in self.params))
