"""Whole-model execution plans: every layer's plan built once, up front.

The per-op :data:`~repro.backend.workload.PLAN_CACHE` amortises plan
construction *lazily* — the first training step or inference request of each
shape-class still pays every ``np.einsum_path`` search and index-table
build.  A :class:`ModelPlan` moves that cost to model-construction time, the
analog of topi's per-workload schedule tables compiled ahead of a run:

- it runs one warm-up pass at the plan's batch size — an eval, no-grad
  forward for inference plans; a training forward plus backward for
  training plans, with the model's state snapshotted and restored around
  it — so every plan that pass reaches (conv, SCC and pooling geometry,
  backward contraction paths) is cache-resident, and
- pre-allocates the batch-staging buffer the serving/training front-ends
  fill in place.

After construction, every step or request at the plan's shapes runs 100%
on plan-cache hits; :class:`repro.serve.Server` keeps one ``ModelPlan`` per
shape bucket and :class:`repro.train.Trainer` accepts one to make the warm
path explicit.
"""
from __future__ import annotations

import numpy as np

from repro.backend.workload import PLAN_CACHE

DTYPE = np.float32


class ModelPlan:
    """Pre-built execution plans + staging buffer for one (model, batch) pair.

    Parameters
    ----------
    model:
        the :class:`repro.nn.Module` to plan for.
    input_shape:
        per-sample ``(C, H, W)`` input geometry.
    batch_size:
        the batch every planned step/request runs at.
    include_backward:
        build training plans (forward + backward); ``False`` gives an
        inference-only plan (the serving case).
    """

    def __init__(
        self,
        model,
        input_shape: tuple[int, int, int],
        batch_size: int = 1,
        include_backward: bool = True,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.model = model
        self.input_shape = tuple(input_shape)
        self.batch_size = batch_size
        self.include_backward = include_backward
        base_builds = PLAN_CACHE.stats()["builds"]
        self._warmup_execution()
        self.prebuilt_plans = PLAN_CACHE.stats()["builds"] - base_builds
        self.input_buffer = np.zeros((batch_size, *self.input_shape), dtype=DTYPE)

    # -- construction ---------------------------------------------------------

    def _warmup_execution(self) -> None:
        """One pass at the plan's shapes, so every plan it reaches is built
        now rather than on the first real step or request."""
        from repro.tensor import Tensor, no_grad

        x = np.zeros((self.batch_size, *self.input_shape), dtype=DTYPE)
        was_training = self.model.training
        if self.include_backward:
            # The pass mutates BN running stats and parameter grads; snapshot
            # and restore so planning leaves the model bit-identical.
            state = self.model.state_dict()
            self.model.train()
            out = self.model(Tensor(x, requires_grad=False))
            out.sum().backward()
            self.model.zero_grad()
            self.model.load_state_dict(state)
        else:
            self.model.eval()
            with no_grad():
                self.model(Tensor(x))
        self.model.train(was_training)

    # -- staging --------------------------------------------------------------

    def stage_batch(self, images: np.ndarray) -> np.ndarray:
        """Copy up to ``batch_size`` images into the pre-allocated input
        buffer, zero-padding the tail, and return the full staged batch.

        This is how the serving front-end assembles a shape bucket without a
        per-request allocation: partial buckets run at the planned batch size
        (so every lookup hits a warm plan) and the padded rows are discarded
        by the caller.
        """
        images = np.asarray(images, dtype=DTYPE)
        n = images.shape[0]
        if n > self.batch_size or images.shape[1:] != self.input_shape:
            raise ValueError(
                f"cannot stage batch of shape {images.shape} into plan for "
                f"batch_size={self.batch_size}, input_shape={self.input_shape}"
            )
        self.input_buffer[:n] = images
        if n < self.batch_size:
            self.input_buffer[n:] = 0.0
        return self.input_buffer

    def matches(self, batch_shape: tuple) -> bool:
        """Whether a concrete input batch shape runs on this plan's entries."""
        return tuple(batch_shape) == (self.batch_size, *self.input_shape)

    # -- observability --------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ModelPlan(batch={self.batch_size}, input={self.input_shape}, "
            f"prebuilt={self.prebuilt_plans}, backward={self.include_backward})"
        )
