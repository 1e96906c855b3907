"""The batch execution engine shared by the serving transports.

:class:`ModelExecutor` owns the model-facing half of serving: the
pre-built per-(shape, bucket) :class:`~repro.backend.ModelPlan` table, the
cold-path plan build for unseen shapes, and the staged, owner-tagged batch
forward under the execution lock.  The serving transport (behind
``Server``, ``Router`` and the asyncio
:class:`~repro.serve.gateway.AsyncGateway`) runs every batch through it,
which is what makes their outputs bitwise-identical: the same plan, the
same staging, the same summation order, regardless of which front formed
the batch.
"""
from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.backend import ModelPlan, plan_owner
from repro.backend.registry import REGISTRY, backend_override
from repro.faults import PoisonedRequest, active_faults
from repro.nn import count_fused
from repro.tensor import Tensor, no_grad

__all__ = [
    "BatchTiming",
    "ExecStats",
    "ModelExecutor",
    "RequestFailed",
]

# The graceful-degradation ladder: a workload that keeps faulting is
# demoted one step down this chain, starting from the resolved default.
_DEGRADE_CHAIN = ("numpy", "reference")


class RequestFailed(RuntimeError):
    """One request's execution failed after isolation and retries.

    This is the per-request terminal failure of the taxonomy (see README
    "Failure semantics"): the batch machinery has already bisected the
    failing batch down and exhausted the retry budget, so exactly the
    requests that cannot succeed carry this — their co-batched neighbours
    complete normally.  ``__cause__`` holds the last underlying error.
    """

    def __init__(self, request_id: int, message: str,
                 cause: BaseException | None = None) -> None:
        super().__init__(message)
        self.request_id = request_id
        if cause is not None:
            self.__cause__ = cause


@dataclass
class ExecStats:
    """Resilience accounting for one :meth:`ModelExecutor.run_resilient`."""

    attempts: int = 0   #: total batch forwards tried (including retries)
    retries: int = 0    #: forwards that were retries of a failed attempt
    splits: int = 0     #: bisections performed to isolate failures
    faults: int = 0     #: raising forwards observed (pre-isolation)


class BatchTiming:
    """Clock readings of one executed batch.

    ``started``/``finished`` are readings of the *injected* clock (the
    transport's time base — comparable to request ``arrived_at`` and
    deadlines); ``exec_seconds`` is the stage+forward wall time on the real
    clock regardless of any test clock (the busy-time metrics consume it).
    """

    __slots__ = ("started", "finished", "exec_seconds")

    def __init__(self, started: float, finished: float, exec_seconds: float):
        self.started = started
        self.finished = finished
        self.exec_seconds = exec_seconds


class ModelExecutor:
    """Plan-warm batch execution for one model.

    Plans for every ``input_shapes`` x ``bucket_sizes`` pair are pre-built
    here (attributed to ``name`` in the shared plan cache), so steady-state
    batches run entirely on cache hits.  Unseen shapes build lazily under
    the execution lock (the build runs a forward on the shared model, so it
    must not overlap an in-flight batch).

    The executor serialises its own batches on ``exec_lock`` — the staged
    plan buffers are shared per (shape, bucket) — while different
    executors' batches may overlap freely (inline ``Server``/``Router``
    drains run batches on concurrent client threads).
    """

    def __init__(
        self,
        model,
        input_shapes: tuple | list = ((3, 32, 32),),
        bucket_sizes: tuple[int, ...] = (1, 2, 4, 8),
        name: str | None = None,
        degrade_after: int | None = None,
    ) -> None:
        self.model = model.eval()
        self.name = name
        self.bucket_sizes = tuple(sorted(set(bucket_sizes)))
        # Layers dispatching through fused conv->bias/BN->activation
        # epilogues (repro.nn.fuse_inference); surfaced in serving metrics.
        self.fused_layers = count_fused(self.model)
        self.exec_lock = threading.Lock()
        # Graceful degradation ladder: after `degrade_after` consecutive
        # non-poison kernel faults on one (shape, bucket) workload, demote
        # just that workload one step down _DEGRADE_CHAIN (starting from
        # the resolved default backend).  Level 0 = no override, i.e. the
        # bitwise-pinned default path; ops a demoted backend lacks fall
        # through to the default order.
        self.degrade_after = degrade_after
        self._ladder_lock = threading.Lock()
        self._ladder: dict[tuple, int] = {}
        self._fail_streak: dict[tuple, int] = {}
        self._degraded_events: list[dict] = []
        self._chain_cache: tuple[str, ...] | None = None
        self._plans_lock = threading.Lock()
        self._plans: dict[tuple, ModelPlan] = {}
        with plan_owner(self.name):
            for shape in input_shapes:
                for bucket in self.bucket_sizes:
                    self._plans[(tuple(shape), bucket)] = ModelPlan(
                        self.model, tuple(shape), batch_size=bucket,
                        include_backward=False,
                    )

    def plan_for(self, shape: tuple, bucket: int) -> ModelPlan:
        """The (shape, bucket) plan, building it on first sight.

        Cold path: visible in metrics via the plan-cache build counter.
        The build runs a warm-up forward on the shared model, so it takes
        the execution lock to stay clear of in-flight batches.
        """
        key = (tuple(shape), bucket)
        with self._plans_lock:
            plan = self._plans.get(key)
        if plan is None:
            with self.exec_lock:
                with self._plans_lock:
                    plan = self._plans.get(key)
                if plan is None:
                    with plan_owner(self.name):
                        plan = ModelPlan(self.model, tuple(shape),
                                         batch_size=bucket,
                                         include_backward=False)
                    with self._plans_lock:
                        self._plans.setdefault(key, plan)
                        plan = self._plans[key]
        return plan

    # -- graceful degradation ladder -------------------------------------------

    def _active_chain(self) -> tuple[str, ...]:
        """The degradation chain from the resolved default backend down."""
        if self._chain_cache is None:
            try:
                resolved = REGISTRY.resolve_name("conv2d", "default")
            except ValueError:
                resolved = None
            chain = _DEGRADE_CHAIN
            if resolved in chain:
                chain = chain[chain.index(resolved):]
            self._chain_cache = chain
        return self._chain_cache

    def _ladder_backend(self, key: tuple) -> str | None:
        """The demoted backend for this workload, or ``None`` (default path)."""
        with self._ladder_lock:
            level = self._ladder.get(key, 0)
        if level == 0:
            return None
        chain = self._active_chain()
        return chain[min(level, len(chain) - 1)]

    def _record_outcome(self, key: tuple, failed: bool) -> None:
        """Fold one non-poison batch outcome into the demotion streaks."""
        if self.degrade_after is None:
            return
        with self._ladder_lock:
            if not failed:
                self._fail_streak[key] = 0
                return
            streak = self._fail_streak.get(key, 0) + 1
            self._fail_streak[key] = streak
            level = self._ladder.get(key, 0)
            chain = self._active_chain()
            if streak >= self.degrade_after and level + 1 < len(chain):
                self._ladder[key] = level + 1
                self._fail_streak[key] = 0
                self._degraded_events.append({
                    "shape": list(key[0]),
                    "bucket": key[1],
                    "level": level + 1,
                    "backend": chain[level + 1],
                })

    def degraded(self) -> list[dict]:
        """Demotion events so far (shape, bucket, level, backend) — oldest first."""
        with self._ladder_lock:
            return [dict(e) for e in self._degraded_events]

    # -- execution -------------------------------------------------------------

    def run(
        self,
        images: list[np.ndarray],
        bucket: int,
        clock: Callable[[], float] = time.perf_counter,
        request_ids: Sequence[int] | None = None,
        attempt: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> tuple[np.ndarray, BatchTiming]:
        """Execute one batch of same-shape images padded to ``bucket``.

        Returns the ``(n, num_classes)`` output rows for the *real* images
        (padding rows are never returned) and the batch's
        :class:`BatchTiming`.  Bitwise guarantee: the plan pads to the
        bucket size, so BLAS blocking and summation order depend only on
        (shape, bucket) — never on how many real requests rode along.

        ``request_ids``/``attempt``/``sleep`` exist for the fault plane and
        resilience machinery: they feed the injector's deterministic fire
        decisions and route injected ``slow_batch`` delays through the
        transport's (possibly virtual) sleep.
        """
        shape = tuple(images[0].shape)
        key = (shape, bucket)
        inj = active_faults()
        if inj is not None:
            inj.check("plan_build", key=key, attempt=attempt, model=self.name)
        plan = self.plan_for(shape, bucket)
        override = self._ladder_backend(key)
        with self.exec_lock:
            started = clock()
            if inj is not None:
                delay = inj.batch_delay(key=key, attempt=attempt,
                                        model=self.name, backend=override)
                if delay > 0.0:
                    sleep(delay)
            exec_start = time.perf_counter()
            try:
                if inj is not None:
                    if override is not None:
                        backend = override
                    else:
                        try:
                            backend = REGISTRY.resolve_name("conv2d", "default")
                        except ValueError:
                            backend = None
                    ids = tuple(request_ids) if request_ids is not None else ()
                    inj.kernel_fault(ids, key=key, attempt=attempt,
                                     model=self.name, backend=backend)
                batch = plan.stage_batch(np.stack(images))
                with no_grad(), plan_owner(self.name), backend_override(override):
                    out = self.model(Tensor(batch)).data
            except PoisonedRequest:
                # Request-level, not backend-level: leave the streak alone.
                raise
            except Exception:
                self._record_outcome(key, failed=True)
                raise
            self._record_outcome(key, failed=False)
            exec_seconds = time.perf_counter() - exec_start
            finished = clock()
        return out[: len(images)], BatchTiming(started, finished, exec_seconds)

    def run_resilient(
        self,
        images: list[np.ndarray],
        bucket: int,
        clock: Callable[[], float] = time.perf_counter,
        request_ids: Sequence[int] | None = None,
        retry: object | None = None,
        sleep: Callable[[float], None] = time.sleep,
        isolate: bool = True,
    ) -> tuple[list, dict[int, RequestFailed], ExecStats, BatchTiming]:
        """Execute a batch, surviving per-request failures.

        The fault-tolerant front door the transports use: first the whole
        batch is tried (with ``retry``'s backoff budget for transient
        faults); if it still raises and ``isolate`` is set, the batch is
        bisected and the halves retried recursively, so the poisoned
        request(s) converge to singleton spans and only they fail.  Because
        every sub-batch re-pads to the *same* bucket, survivors' rows are
        bitwise-identical to a clean run — isolation never perturbs the
        numerics, only the grouping.

        Returns ``(rows, errors, stats, timing)``: ``rows[i]`` is the output
        row for ``images[i]`` or ``None`` when it failed, ``errors`` maps
        failed input indices to :class:`RequestFailed`, ``stats`` is the
        :class:`ExecStats` of the whole episode, and ``timing`` spans the
        earliest start to the latest finish with summed exec seconds.
        """
        ids = (list(request_ids) if request_ids is not None
               else list(range(len(images))))
        rows: list = [None] * len(images)
        errors: dict[int, RequestFailed] = {}
        stats = ExecStats()
        timings: list[BatchTiming] = []

        def attempt_span(idxs: list[int]) -> None:
            attempt = 0
            last: BaseException | None = None
            while True:
                stats.attempts += 1
                try:
                    out, timing = self.run(
                        [images[i] for i in idxs], bucket, clock,
                        request_ids=[ids[i] for i in idxs],
                        attempt=attempt, sleep=sleep,
                    )
                    timings.append(timing)
                    for row, i in zip(out, idxs):
                        rows[i] = row
                    return
                except PoisonedRequest as exc:
                    # Deterministic by construction: no retry can succeed,
                    # go straight to isolation.
                    stats.faults += 1
                    last = exc
                    break
                except Exception as exc:
                    stats.faults += 1
                    last = exc
                    if retry is not None and retry.should_retry(attempt):
                        stats.retries += 1
                        delay = retry.delay(attempt, token=ids[idxs[0]])
                        if delay > 0.0:
                            sleep(delay)
                        attempt += 1
                        continue
                    break
            if isolate and len(idxs) > 1:
                stats.splits += 1
                mid = len(idxs) // 2
                attempt_span(idxs[:mid])
                attempt_span(idxs[mid:])
                return
            for i in idxs:
                errors[i] = RequestFailed(
                    ids[i],
                    f"request {ids[i]} failed after {attempt + 1} attempt(s): "
                    f"{last}",
                    cause=last,
                )

        attempt_span(list(range(len(images))))
        if timings:
            timing = BatchTiming(
                min(t.started for t in timings),
                max(t.finished for t in timings),
                sum(t.exec_seconds for t in timings),
            )
        else:
            now = clock()
            timing = BatchTiming(now, now, 0.0)
        return rows, errors, stats, timing
