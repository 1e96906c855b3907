"""The asyncio serving transport over the scheduling core.

:class:`AsyncGateway` is the ``await``-able front-end: ``submit`` resolves
with the request's :class:`~repro.serve.server.RequestResult` or raises
when the request is shed (:class:`~repro.serve.server.QueueFull`,
:class:`~repro.serve.server.DeadlineExceeded`); a per-request latency
*budget* becomes an absolute deadline the
:class:`~repro.serve.sched.ShedPolicy` enforces.

All scheduling state lives in one :class:`~repro.serve.sched.SchedCore`
touched **only from the event loop** — no locks in the policy path.  Batch
execution runs on the shared worker pool
(:func:`repro.backend.parallel.submit_pooled`, sized once from
``REPRO_NUM_WORKERS`` or the affinity mask) while the loop awaits the
wrapped future, at most ``get_num_workers()`` batches at once, each started
as soon as a slot frees — the one transport whose batches run concurrently
(the sync transports drain serially); each model serialises its own batches
on an asyncio lock here and the executor's thread lock below.  Completions
fold into the same per-model :class:`~repro.serve.server.ModelRuntime`
record the sync transports use, so ``metrics()`` means the same thing
everywhere, and the same :class:`~repro.serve.engine.ModelExecutor` makes outputs at a fixed
bucket bit-identical to the sync transports' and to per-request inference.
"""
from __future__ import annotations

import asyncio
import time
from typing import Callable

import numpy as np

from repro.backend import get_num_workers, submit_pooled
from repro.serve.engine import ModelExecutor, RequestFailed
from repro.serve.policy import ServingPolicy
from repro.serve.sched import Batch, SchedRequest
from repro.serve.server import (
    DeadlineExceeded,
    ModelRuntime,
    QueueFull,
    RequestResult,
    RequestShed,
    ServingMetrics,
    breaker_snapshots,
    resolve_model,
)

__all__ = ["AsyncGateway"]


class AsyncGateway:
    """Asyncio multi-model serving gateway on the scheduling core.

    Usage::

        async with AsyncGateway(ServingPolicy(max_latency=0.005)) as gw:
            gw.register("small", "mobilenet", input_shapes=[(3, 16, 16)],
                        width_mult=0.25)
            result = await gw.submit("small", image, budget=0.05)

    ``submit`` resolves once the request's batch completed; it raises
    :class:`QueueFull` when admission rejects (after the deadline policy
    displaced any blown-budget victims) and :class:`DeadlineExceeded` when
    the request itself is shed with its budget blown.  Every await-er of a
    shed request gets the exception — nothing is silently dropped.

    ``config=None`` keeps the gateway's historical defaults (adaptive
    buckets, deadline shedding); a :class:`ServingPolicy` means what it
    says.  Batches run at most ``get_num_workers()`` at a time.  Must be
    driven inside a running event loop.
    """

    def __init__(
        self,
        config: ServingPolicy | None = None,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if config is None:
            config = ServingPolicy(adaptive_buckets=True, shed_policy="deadline")
        self.config = config
        self.clock = clock
        self.sleep = sleep  # backoff sleeps inside pooled batch execution
        self.core = self.config.make_core()
        self._models: dict[str, ModelRuntime] = {}
        self._model_locks: dict[str, asyncio.Lock] = {}
        self._futures: dict[int, asyncio.Future] = {}
        self._wake = asyncio.Event()
        self._batch_tasks: set[asyncio.Task] = set()
        self._batch_slots = asyncio.Semaphore(max(1, get_num_workers()))
        self._loop_task: asyncio.Task | None = None
        self._stopping = False

    # -- registration ---------------------------------------------------------

    def register(
        self,
        name: str,
        model,
        input_shapes: tuple | list = ((3, 32, 32),),
        request_cost: float = 1.0,
        exec_estimate: float | None = None,
        **build_kwargs,
    ) -> None:
        """Add a model under ``name`` (module or registry name, like
        :meth:`repro.serve.router.Router.register`).  ``request_cost`` and
        ``exec_estimate`` are :meth:`~repro.serve.sched.SchedCore.add_model`'s
        DRR price and deadline-shed estimate; the default ``None`` estimate
        follows the model's measured batch spans."""
        if name in self._models:
            raise ValueError(f"model {name!r} already registered")
        executor = ModelExecutor(
            resolve_model(name, model, build_kwargs), input_shapes=input_shapes,
            bucket_sizes=self.config.bucket_sizes, name=name,
            degrade_after=self.config.degrade_after,
        )
        self._models[name] = ModelRuntime(executor, self.config.make_breaker())
        self._model_locks[name] = asyncio.Lock()
        self.core.add_model(
            name, request_cost=request_cost, exec_estimate=exec_estimate
        )

    def models(self) -> tuple[str, ...]:
        return tuple(self._models)

    # -- request lifecycle ----------------------------------------------------

    async def submit(
        self, model: str, image: np.ndarray, budget: float | None = None
    ) -> RequestResult:
        """Route one ``(C, H, W)`` image to ``model``; await its result.

        ``budget`` is the request's latency SLO in seconds — converted to
        an absolute deadline on the gateway clock at submission.  Under the
        ``deadline`` shed policy a request whose budget expires while
        queued resolves with :class:`DeadlineExceeded` instead of a result.
        """
        if model not in self._models:
            raise KeyError(
                f"no model {model!r} registered; have {sorted(self._models)}"
            )
        image = np.asarray(image, dtype=np.float32)
        if image.ndim != 3:
            raise ValueError(f"expected one (C, H, W) image, got shape {image.shape}")
        self._ensure_loop()
        now = self.clock()
        runtime = self._models[model]
        runtime.admit(now)
        deadline = None if budget is None else now + budget
        outcome = self.core.submit(
            model, image.shape, now, deadline=deadline, payload=image
        )
        self._fail_shed(outcome.displaced)
        if not outcome.accepted:
            runtime.rejected += 1
            raise QueueFull(
                f"gateway queue for {model!r} at capacity "
                f"(max_pending={self.config.max_pending}); request shed"
            )
        if runtime.started is None:
            runtime.started = now
        future = asyncio.get_running_loop().create_future()
        self._futures[outcome.request.id] = future
        self._wake.set()
        return await future

    def _fail_shed(self, victims: list[SchedRequest], deadline: bool = True) -> None:
        """Resolve shed requests' futures: :class:`DeadlineExceeded` for
        blown budgets, :class:`RequestShed` for a shutdown shed."""
        for victim in victims:
            runtime = self._models[victim.model]
            if deadline:
                runtime.shed_deadline += 1
                error = DeadlineExceeded(
                    f"request {victim.id} for {victim.model!r} was shed: its "
                    f"latency budget expired while it was still queued"
                )
            else:
                runtime.shed += 1
                error = RequestShed(
                    f"request {victim.id} was shed on shutdown before executing"
                )
            future = self._futures.pop(victim.id, None)
            if future is not None and not future.done():
                future.set_exception(error)

    def kick(self) -> None:
        """Wake the scheduler loop immediately (deterministic tests with an
        injected clock advance the clock, then kick)."""
        self._wake.set()

    # -- scheduler loop -------------------------------------------------------

    def _ensure_loop(self) -> None:
        if self._loop_task is None or self._loop_task.done():
            self._stopping = False
            self._loop_task = asyncio.get_running_loop().create_task(
                self._scheduler_loop()
            )

    async def _scheduler_loop(self) -> None:
        """Shed blown budgets, dispatch due batches, sleep to the next event.

        Single consumer of the core: submissions only enqueue and set the
        wake event, so every policy decision happens here, on the loop, in
        a deterministic order.
        """
        while not self._stopping:
            now = self.clock()
            self._fail_shed(self.core.shed_blown(now))
            while True:
                batch = self.core.next_batch(now)
                if batch is None:
                    break
                self._spawn_batch(batch)
            next_event = self.core.next_event(now)
            self._wake.clear()
            try:
                # Floor the sleep: an event landing exactly "now" (a deadline
                # on the blown/viable boundary) must not busy-spin a frozen
                # injected clock.
                timeout = None if next_event is None \
                    else max(next_event - now, 1e-4)
                await asyncio.wait_for(self._wake.wait(), timeout)
            except asyncio.TimeoutError:
                pass

    def _spawn_batch(self, batch: Batch) -> None:
        task = asyncio.get_running_loop().create_task(self._execute(batch))
        self._batch_tasks.add(task)
        task.add_done_callback(self._batch_tasks.discard)

    async def _execute(self, batch: Batch) -> None:
        runtime = self._models[batch.model]
        images = [r.payload for r in batch.requests]
        ids = [r.id for r in batch.requests]
        retry = self.config.retry
        async with self._batch_slots, self._model_locks[batch.model]:
            # The engine's run_resilient handles kernel-level retries and
            # bisect isolation inside the pool; this loop only covers
            # failures *reaching* the pool (submit errors and the like),
            # backing off on the event loop, never blocking it.
            attempt = 0
            while True:
                try:
                    pooled = submit_pooled(
                        runtime.executor.run_resilient, images, batch.bucket,
                        self.clock, ids, retry, self.sleep,
                        self.config.isolate_failures,
                    )
                    rows, errors, stats, timing = await asyncio.wrap_future(pooled)
                    break
                except asyncio.CancelledError:
                    raise
                except BaseException as exc:
                    if retry is not None and retry.should_retry(attempt):
                        runtime.retries += 1
                        await asyncio.sleep(retry.delay(attempt, token=ids[0]))
                        attempt += 1
                        continue
                    done = self.clock()
                    for request in batch.requests:
                        runtime.record(False, done)
                        self._resolve(request.id, RequestFailed(
                            request.id,
                            f"request {request.id} failed: batch could "
                            f"not be executed ({exc})",
                            cause=exc,
                        ))
                    return
        # Auto-calibrate the deadline shed's exec_estimate from the span
        # the batch actually took on the gateway clock — same time base as
        # the deadlines it will be compared against.
        self.core.observe_exec(
            batch.model, max(0.0, timing.finished - timing.started)
        )
        outcomes = runtime.fold(batch, rows, errors, stats, timing)
        for request, outcome in zip(batch.requests, outcomes):
            self._resolve(request.id, outcome)

    def _resolve(self, request_id: int, outcome) -> None:
        future = self._futures.pop(request_id, None)
        if future is None or future.done():
            return
        if isinstance(outcome, BaseException):
            future.set_exception(outcome)
        else:
            future.set_result(outcome)

    # -- shutdown -------------------------------------------------------------

    async def drain(self) -> None:
        """Force-dispatch everything queued and await all in-flight batches."""
        while True:
            now = self.clock()
            batch = self.core.next_batch(now, force=True)
            if batch is None:
                break
            self._spawn_batch(batch)
        await self._settle()

    async def _settle(self) -> None:
        """Await every in-flight batch (spawned ones included)."""
        while self._batch_tasks:
            await asyncio.gather(*list(self._batch_tasks),
                                 return_exceptions=True)

    async def stop(self, drain: bool = True) -> None:
        """Stop the scheduler loop; drain or shed what is still queued.

        ``drain=False`` sheds: every still-queued request's await-er gets
        :class:`~repro.serve.server.RequestShed` (counted in
        ``ServingMetrics.shed``) — nothing submitted is silently dropped,
        matching the sync transports' shutdown contract.  Idempotent.
        """
        self._stopping = True
        self._wake.set()
        if self._loop_task is not None:
            await self._loop_task
            self._loop_task = None
        if drain:
            await self.drain()
        else:
            self._fail_shed(self.core.shed_all(), deadline=False)
            await self._settle()

    async def __aenter__(self) -> "AsyncGateway":
        self._ensure_loop()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop(drain=exc_type is None)

    # -- metrics --------------------------------------------------------------

    def metrics(self) -> dict[str, ServingMetrics]:
        """Per-model :class:`ServingMetrics` over the gateway's lifetime
        (the same record and metrics code as the sync transports)."""
        return {name: runtime.metrics(self.core.bucket_target(name))
                for name, runtime in self._models.items()}

    def breaker_snapshots(self) -> dict[str, dict]:
        return breaker_snapshots(self._models)
