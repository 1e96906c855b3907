"""The synchronous serving tier: one transport over the scheduling core.

:class:`SyncTransport` hands every single-image request to one
:class:`~repro.serve.sched.SchedCore`, which queues it by ``(model, (C, H,
W))`` and decides admission, bucket size, deadline shedding and the
deficit-round-robin order between models.  The transport keeps only what a
transport must own: the lock, one table of settled outcomes (a result, a
:class:`~repro.serve.engine.RequestFailed` or a shed error per request)
with its retention bound, the blocking ``wait_result``, one worker thread
that sleeps until the core's next event, and shutdown.  Batches pad to the
smallest configured bucket that fits and run on the model's
:class:`~repro.serve.engine.ModelExecutor`, whose pre-built plans keep
steady-state serving on plan-cache hits.  Due batches run serially, one
after another in the core's order, on the thread that took them; after
each, its measured span calibrates the core's ``exec_estimate`` for the
deadline shed.

:class:`Server` (one model, int ids), the multi-model
:class:`~repro.serve.router.Router` and the asyncio
:class:`~repro.serve.gateway.AsyncGateway` front it.  Drive the first two
synchronously (``poll``/``flush``, and a ``submit`` that makes a batch due,
run batches on the caller — deterministic with an injected clock) or
threaded (``start``, then ``wait_result`` from any number of client
threads).  The gateway always runs the worker thread and awaits each
request on an asyncio future, which the worker resolves on the future's
own loop when the request settles; an outcome a future takes is not filed.
"""
from __future__ import annotations

import asyncio
import itertools
import threading
import time
from collections import Counter, OrderedDict, deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from repro.backend import plan_cache_owner_stats, plan_owner
from repro.serve.engine import ModelExecutor, RequestFailed
from repro.serve.policy import ServingPolicy
from repro.serve.sched import Batch, CircuitBreaker, SchedRequest

# Retention bounds that keep a long-running transport's memory flat: settled
# outcomes (results, failures and sheds alike) past RESULT_CAPACITY are
# dropped oldest-first, except those a wait_result is blocked on; latency
# percentiles cover the last METRICS_WINDOW batches' completions.  Read at
# use time, so tests may monkeypatch smaller values.
RESULT_CAPACITY = 65536
METRICS_WINDOW = 65536

# Plan-cache owner counters that only ever grow; "size" is a gauge and must
# never be used for clear detection (evictions shrink it).
_CACHE_KEYS = ("hits", "misses", "builds", "evictions")

# Owner-tag numbers for unnamed servers (never reused, unlike id()).
_UNNAMED = itertools.count()


class QueueFull(RuntimeError):
    """Admission control rejected a submit: the model's queue already holds
    ``ServingPolicy.max_pending`` requests (counted in
    ``ServingMetrics.rejected``) — shed on overload instead of letting the
    queue, and every request's latency, grow without bound."""


class RequestShed(RuntimeError):
    """The request was dropped unexecuted by ``stop(drain=False)`` — and
    reported (this exception from ``wait_result``, ``was_shed``), never
    silently discarded."""


class DeadlineExceeded(RequestShed):
    """The ``deadline`` shed policy dropped the request: its deadline passed
    while it was still queued, so executing it could only waste capacity
    that viable requests need."""


class ModelUnavailable(RequestShed):
    """The model's circuit breaker is open, so ``submit`` sheds at the door
    (counted in ``ServingMetrics.unavailable``) instead of queuing behind a
    broken model.  After its cooldown the breaker half-opens and probes."""


class ResultTimeout(TimeoutError):
    """``wait_result`` gave up waiting.  Carries the ``request_id``, the
    ``timeout`` and the request's :class:`RequestStatus` at that moment: a
    ``PENDING`` request stays accounted and may still complete later, an
    ``EVICTED`` one (raised at once, without waiting) never will."""

    def __init__(self, request_id: int, timeout: float,
                 status: "RequestStatus") -> None:
        super().__init__(
            f"request {request_id} not completed in {timeout}s "
            f"(status: {status.value})"
        )
        self.request_id = request_id
        self.timeout = timeout
        self.status = status


class RequestStatus(str, Enum):
    """Lifecycle answer of ``status`` — disambiguates the ``result() is
    None`` cases (still pending vs evicted unread)."""

    PENDING = "PENDING"    # queued or executing right now
    DONE = "DONE"          # completed, result retrievable
    SHED = "SHED"          # dropped unexecuted (shutdown or deadline shed)
    EVICTED = "EVICTED"    # terminal, but no record is kept (see status)
    FAILED = "FAILED"      # executed and failed (RequestFailed retrievable)


@dataclass
class RequestResult:
    """Completed request: model output row + serving bookkeeping."""

    id: int
    output: np.ndarray           # (num_classes,)
    latency: float               # submit -> batch completion, seconds
    batch_requests: int          # real requests in the batch it rode in
    bucket_size: int             # planned (padded) batch size
    queue_wait: float = 0.0      # submit -> batch execution start, seconds


@dataclass
class ServingMetrics:
    """One model's serving statistics over the measurement window."""

    completed: int
    batches: int
    throughput: float            # completed / (first submit -> last completion)
    latency_p50: float
    latency_p95: float
    latency_mean: float
    plan_cache_hit_rate: float   # owner-tagged hits / (hits + misses)
    plan_builds: int             # owner-tagged plan-cache builds (0 = warm)
    mean_batch_occupancy: float  # real requests per executed batch
    mean_bucket_fill: float      # real requests / padded bucket slots
    rejected: int = 0            # submits refused by admission control
    shed: int = 0                # queued requests dropped by stop(drain=False)
    exec_seconds_total: float = 0.0  # summed batch execution time (busy time)
    fused_layers: int = 0        # layers serving through fused epilogues
    shed_deadline: int = 0       # requests dropped with their budget blown
    deadline_misses: int = 0     # completed past their deadline
    deadline_miss_rate: float = 0.0  # misses / completions that had deadlines
    queue_wait_mean: float = 0.0  # submit -> execution start (the queue half
    queue_wait_p95: float = 0.0   # of latency; exec_mean is the other half)
    exec_mean: float = 0.0       # mean per-batch execution wall time
    bucket_target: int = 0       # current adaptive bucket target
    failed: int = 0              # requests failed with RequestFailed
    retries: int = 0             # batch forwards retried after transient faults
    isolated_batches: int = 0    # batches bisected to isolate a failure
    unavailable: int = 0         # submits shed with ModelUnavailable (breaker)
    degraded_plans: int = 0      # workloads demoted down the backend chain
    breaker_state: str = "disabled"  # closed / open / half_open / disabled
    breaker_opens: int = 0       # times the breaker tripped open

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample (0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def cache_delta(now: dict, base: dict) -> dict:
    """Growth of the ``_CACHE_KEYS`` counters from ``base`` to ``now``, plus
    ``hit_rate``.  A counter below its base means a ``clear_plan_cache()``
    inside the window: ``base`` is zeroed in place and attribution restarts
    from the clear (never negative deltas)."""
    if any(now[key] < base[key] for key in _CACHE_KEYS):
        base.update(dict.fromkeys(_CACHE_KEYS, 0))
    window = {key: now[key] - base[key] for key in _CACHE_KEYS}
    accesses = window["hits"] + window["misses"]
    window["hit_rate"] = window["hits"] / accesses if accesses else 1.0
    return window


def _shed_error(rid: int, deadline: bool) -> RequestShed:
    """What a shed request's waiter gets: :class:`DeadlineExceeded` for a
    deadline shed, :class:`RequestShed` for a shutdown shed."""
    if deadline:
        return DeadlineExceeded(
            f"request {rid} was shed: its deadline (latency budget) passed "
            f"while it was still queued"
        )
    return RequestShed(f"request {rid} was shed on shutdown before executing")


def _resolve(future, outcome) -> None:
    """Settle an awaited request's future; runs on the future's loop."""
    if future.done():   # its awaiter was cancelled
        return
    if isinstance(outcome, BaseException):
        future.set_exception(outcome)
    else:
        future.set_result(outcome)


def resolve_model(name: str, model, build_kwargs: dict):
    """A built module, or registry model ``model`` built under ``name``'s
    plan-cache owner tag (:func:`repro.models.build_serving_model`)."""
    if isinstance(model, str):
        from repro.models import build_serving_model

        with plan_owner(name):
            return build_serving_model(model, **build_kwargs)
    if build_kwargs:
        raise ValueError(
            "build_kwargs only apply when model is a registry name, "
            f"got kwargs {sorted(build_kwargs)} with a built model"
        )
    return model


class ModelRuntime:
    """One served model as every transport holds it: its executor, its
    circuit breaker, and the window of statistics folded from its batches.

    Plan-cache figures are deltas of the cache's per-owner counters for
    the executor's name since :meth:`reset` (:meth:`cache_window`) — exact
    under any mix of cache clients.  A ``clear_plan_cache()`` inside the
    window restarts attribution from the clear (never negative deltas).
    """

    def __init__(self, executor: ModelExecutor,
                 breaker: CircuitBreaker | None) -> None:
        self.executor = executor
        self.breaker = breaker
        self.reset()

    def reset(self) -> None:
        self.completed = self.failed = self.retries = self.isolations = 0
        self.rejected = self.shed = self.shed_deadline = self.unavailable = 0
        self.deadline_misses = self.deadline_total = 0
        self.latencies: deque[float] = deque(maxlen=METRICS_WINDOW)
        self.queue_waits: deque[float] = deque(maxlen=METRICS_WINDOW)
        self.batches: deque[tuple[int, int]] = deque(maxlen=METRICS_WINDOW)
        # Per-batch stage+forward wall times on the real clock, whatever
        # clock the transport runs on (busy time and mean exec time).
        self.exec_seconds: deque[float] = deque(maxlen=METRICS_WINDOW)
        self.started: float | None = None    # first accepted submit
        self.finished: float | None = None   # last batch completion
        self.cache_base = self._owner_counters()

    def _owner_counters(self) -> dict[str, int]:
        acc = plan_cache_owner_stats().get(self.executor.name, {})
        return {key: acc.get(key, 0) for key in (*_CACHE_KEYS, "size")}

    def cache_window(self) -> dict[str, float]:
        """This window's hits/misses/builds/evictions, resident ``size`` and
        ``hit_rate`` of the model's plan-cache owner tag."""
        now = self._owner_counters()
        window = cache_delta(now, self.cache_base)
        window["size"] = now["size"]
        return window

    def admit(self, now: float) -> None:
        """Raise :class:`ModelUnavailable` while the breaker is open."""
        if self.breaker is not None and not self.breaker.allow(now):
            self.unavailable += 1
            raise ModelUnavailable(
                f"model {self.executor.name!r} is unavailable: circuit breaker "
                f"open (error rate {self.breaker.error_rate():.0%} over recent "
                f"requests)"
            )

    def record(self, ok: bool, now: float) -> None:
        """Fold one request outcome into the counters and the breaker."""
        if not ok:
            self.failed += 1
        if self.breaker is not None:
            self.breaker.record(ok, now)

    def fold(self, batch: Batch, rows, errors, stats, timing) -> list:
        """Fold one executed batch (a ``run_resilient`` return) in; returns
        each request's :class:`RequestResult` or :class:`RequestFailed`."""
        done, n = timing.finished, len(batch.requests)
        outcomes = []
        for i, request in enumerate(batch.requests):
            if i in errors:
                self.record(False, done)
                outcomes.append(errors[i])
                continue
            result = RequestResult(
                id=request.id, output=rows[i].copy(),
                latency=done - request.arrived_at, batch_requests=n,
                bucket_size=batch.bucket,
                queue_wait=timing.started - request.arrived_at,
            )
            self.completed += 1
            self.latencies.append(result.latency)
            self.queue_waits.append(result.queue_wait)
            self.record(True, done)
            if request.deadline is not None:
                self.deadline_total += 1
                if done > request.deadline:  # exactly at it meets the SLO
                    self.deadline_misses += 1
            outcomes.append(result)
        self.retries += stats.retries
        if stats.splits:
            self.isolations += 1
        self.batches.append((n, batch.bucket))
        self.exec_seconds.append(timing.exec_seconds)
        self.finished = done
        return outcomes

    def metrics(self, bucket_target: int, cache: dict | None = None) -> ServingMetrics:
        lat, waits = sorted(self.latencies), sorted(self.queue_waits)
        cache = cache or self.cache_window()
        elapsed = 0.0
        if self.started is not None and self.finished is not None:
            elapsed = self.finished - self.started
        real = sum(n for n, _ in self.batches)
        padded = sum(b for _, b in self.batches)
        breaker = self.breaker
        return ServingMetrics(
            completed=self.completed,
            batches=len(self.batches),
            throughput=self.completed / elapsed if elapsed > 0 else 0.0,
            latency_p50=_percentile(lat, 0.50),
            latency_p95=_percentile(lat, 0.95),
            latency_mean=sum(lat) / len(lat) if lat else 0.0,
            plan_cache_hit_rate=cache["hit_rate"],
            plan_builds=cache["builds"],
            mean_batch_occupancy=real / len(self.batches) if self.batches else 0.0,
            mean_bucket_fill=real / padded if padded else 0.0,
            rejected=self.rejected,
            shed=self.shed,
            exec_seconds_total=sum(self.exec_seconds),
            fused_layers=self.executor.fused_layers,
            shed_deadline=self.shed_deadline,
            deadline_misses=self.deadline_misses,
            deadline_miss_rate=self.deadline_misses / self.deadline_total
            if self.deadline_total else 0.0,
            queue_wait_mean=sum(waits) / len(waits) if waits else 0.0,
            queue_wait_p95=_percentile(waits, 0.95),
            exec_mean=sum(self.exec_seconds) / len(self.exec_seconds)
            if self.exec_seconds else 0.0,
            bucket_target=bucket_target,
            failed=self.failed,
            retries=self.retries,
            isolated_batches=self.isolations,
            unavailable=self.unavailable,
            degraded_plans=len(self.executor.degraded()),
            breaker_state=breaker.state if breaker else "disabled",
            breaker_opens=breaker.opens if breaker else 0,
        )


class SyncTransport:
    """The synchronous transport over one :class:`SchedCore`.

    ``config`` is a :class:`~repro.serve.policy.ServingPolicy` (``None`` =
    ``ServingPolicy()``); ``clock``/``sleep`` are injectable for
    deterministic tests.  Request ids come from the core and are unique
    across the transport's models.  Models are added with :meth:`register`;
    subclasses map their request keys to ids with :meth:`_rid`.  Every
    request settles exactly once, in :meth:`_settle_locked`, which resolves
    the asyncio future it was submitted with, if any, or else files its
    outcome.
    """

    def __init__(self, config: ServingPolicy | None = None,
                 clock: Callable[[], float] = time.perf_counter,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.config = ServingPolicy() if config is None else config
        if not isinstance(self.config, ServingPolicy):
            raise TypeError(
                f"config must be a ServingPolicy, got {type(config).__name__}"
            )
        self.clock = clock
        self.sleep = sleep
        self.core = self.config.make_core()
        self._models: dict[str, ModelRuntime] = {}
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)   # wait_result waiters
        self._wake = threading.Condition(self._lock)   # the worker thread
        self._pending: set[int] = set()                # queued or executing
        # Settled outcomes no future took, oldest first: each request's
        # RequestResult, its RequestFailed, or its shed error (RequestShed /
        # DeadlineExceeded).
        self._settled: OrderedDict[
            int, RequestResult | RequestFailed | RequestShed] = OrderedDict()
        self._waiting: Counter[int] = Counter()        # blocked waiters per id
        self._futures: dict[int, asyncio.Future] = {}  # ids an await-er waits on
        self._last_id = -1
        self._worker: threading.Thread | None = None
        self._stopping = False

    # -- models ---------------------------------------------------------------

    def register(
        self,
        name: str,
        model,
        input_shapes: tuple | list = ((3, 32, 32),),
        request_cost: float = 1.0,
        **build_kwargs,
    ) -> None:
        """Add a model under ``name``.

        ``model`` is either a built ``repro.nn`` module or a registry model
        name (``"mobilenet"``, ``"resnet18"``, ...) resolved through
        :func:`repro.models.build_serving_model` with ``build_kwargs``.
        Plan pre-building for the configured buckets runs here, attributed
        to ``name`` in the shared cache; the model's metrics window opens
        after it, so a model registered mid-window reports only served
        traffic.  ``request_cost`` is the model's deficit-round-robin price
        per request (:meth:`~repro.serve.sched.SchedCore.add_model`).
        """
        if name in self._models:
            raise ValueError(f"model {name!r} already registered")
        executor = ModelExecutor(
            resolve_model(name, model, build_kwargs), input_shapes=input_shapes,
            bucket_sizes=self.config.bucket_sizes, name=name,
            degrade_after=self.config.degrade_after,
        )
        with self._lock:
            self.core.add_model(name, request_cost=request_cost,
                                exec_estimate=None)
            self._models[name] = ModelRuntime(executor, self.config.make_breaker())

    def _require(self, name: str) -> ModelRuntime:
        try:
            return self._models[name]
        except KeyError:
            raise KeyError(
                f"no model {name!r} registered; have {sorted(self._models)}"
            ) from None

    def _rid(self, key) -> int:
        return key

    def models(self) -> tuple[str, ...]:
        return tuple(self._models)

    # -- request lifecycle ----------------------------------------------------

    def _submit(self, model: str, image, deadline: float | None,
                future: asyncio.Future | None = None) -> int:
        """Admit one ``(C, H, W)`` image for ``model``; returns its id.

        ``deadline`` is an absolute clock reading: under
        ``shed_policy="deadline"`` a request still queued past it is shed,
        and later completions count in ``deadline_misses``.  Raises
        :class:`ModelUnavailable` or :class:`QueueFull`.  Without a worker
        thread, batches this submit made due run before it returns.
        ``future`` is registered in the same locked section that admits the
        request, so the request cannot settle before its future exists.
        """
        runtime = self._require(model)
        image = np.asarray(image, dtype=np.float32)
        if image.ndim != 3:
            raise ValueError(f"expected one (C, H, W) image, got shape {image.shape}")
        now = self.clock()
        with self._lock:
            runtime.admit(now)
            outcome = self.core.submit(model, image.shape, now,
                                       deadline=deadline, payload=image)
            self._shed_locked(outcome.displaced, deadline=True)
            if not outcome.accepted:
                runtime.rejected += 1
                raise QueueFull(
                    f"queue for {model!r} at capacity "
                    f"(max_pending={self.config.max_pending}); request shed"
                )
            rid = self._last_id = outcome.request.id
            self._pending.add(rid)
            if future is not None:
                self._futures[rid] = future
            if runtime.started is None:
                runtime.started = now
            inline = self._worker is None
            if not inline:
                self._wake.notify()
        if inline:
            self._pump(now)
        return rid

    def pending_count(self, model: str | None = None) -> int:
        """Requests submitted but not yet executing (the admission quantity)."""
        with self._lock:
            return self.core.pending_count(model)

    def poll(self, now: float | None = None) -> int:
        """Shed blown budgets, then run every batch the core says is due
        (full target bucket or head waited ``max_latency``); returns the
        number of batches executed."""
        return self._pump(self.clock() if now is None else now)

    def flush(self) -> int:
        """Run every queued request regardless of deadlines."""
        return self._pump(self.clock(), force=True)

    def _outcome(self, key, kind: type):
        """The request's settled outcome if it is a ``kind``, else ``None``."""
        rid = self._rid(key)
        with self._lock:
            outcome = self._settled.get(rid)
        return outcome if isinstance(outcome, kind) else None

    def result(self, key) -> RequestResult | None:
        """The completed result, or ``None`` if the request is pending or
        its result was evicted unread — :meth:`status` tells them apart."""
        return self._outcome(key, RequestResult)

    def failure(self, key) -> RequestFailed | None:
        """The request's :class:`RequestFailed`, or ``None`` if it did not fail."""
        return self._outcome(key, RequestFailed)

    def was_shed(self, key) -> bool:
        """Whether a request was dropped unexecuted (shutdown or deadline shed)."""
        return self._outcome(key, RequestShed) is not None

    def status(self, key) -> RequestStatus:
        """Lifecycle state of an issued request (see :class:`RequestStatus`).

        ``EVICTED`` covers a terminal request whose record aged out past
        ``RESULT_CAPACITY``, and an :class:`~repro.serve.gateway.AsyncGateway`
        request, whose outcome went to the future that awaited it and is
        not filed.  Raises :class:`KeyError` for an id this
        transport never issued.
        """
        rid = self._rid(key)
        with self._lock:
            return self._status_locked(rid)

    def _status_locked(self, rid: int) -> RequestStatus:
        outcome = self._settled.get(rid)
        if isinstance(outcome, RequestResult):
            return RequestStatus.DONE
        if isinstance(outcome, RequestFailed):
            return RequestStatus.FAILED
        if outcome is not None:
            return RequestStatus.SHED
        if rid in self._pending:
            return RequestStatus.PENDING
        if 0 <= rid <= self._last_id:
            # Ids are allocated only on acceptance, so an issued id that no
            # table tracks is terminal: aged out, or taken by its future.
            return RequestStatus.EVICTED
        raise KeyError(f"request id {rid} was never issued")

    def wait_result(self, key, timeout: float = 10.0) -> RequestResult:
        """Block until a request settles; return its result.

        An outcome with a blocked waiter is exempt from retention eviction,
        so the waiter always gets it.  Raises :class:`DeadlineExceeded` /
        :class:`RequestShed` for shed requests,
        :class:`~repro.serve.engine.RequestFailed` for failed ones, and
        :class:`ResultTimeout` (carrying the :meth:`status`) when the wait
        gives up, at once for an ``EVICTED`` request (eviction is terminal).
        """
        rid = self._rid(key)
        end = time.monotonic() + timeout
        with self._cond:
            self._waiting[rid] += 1
            try:
                while (outcome := self._settled.get(rid)) is None:
                    remaining = end - time.monotonic()
                    if remaining <= 0 or rid not in self._pending:
                        raise ResultTimeout(rid, timeout, self._status_locked(rid))
                    self._cond.wait(remaining)
            finally:
                self._waiting[rid] -= 1
                if not self._waiting[rid]:
                    del self._waiting[rid]
        if isinstance(outcome, RequestResult):
            return outcome
        raise outcome

    # -- batch execution ------------------------------------------------------

    def _pump(self, now: float, force: bool = False) -> int:
        """Take every batch due at ``now`` (all of them with ``force``) and
        run them; returns the number run."""
        with self._lock:
            if not force:
                self._shed_locked(self.core.shed_blown(now), deadline=True)
            batches = self._take_locked(now, force)
        self._execute(batches)
        return len(batches)

    def _take_locked(self, now: float, force: bool = False) -> list[Batch]:
        batches = []
        while (batch := self.core.next_batch(now, force)) is not None:
            batches.append(batch)
        return batches

    def _execute(self, batches: list[Batch]) -> None:
        """Run batches serially in core order, each calibrating the core's
        execution estimate with its measured span."""
        for batch in batches:
            runtime = self._models[batch.model]
            rows, errors, stats, timing = runtime.executor.run_resilient(
                [r.payload for r in batch.requests], batch.bucket,
                clock=self.clock, request_ids=[r.id for r in batch.requests],
                retry=self.config.retry, sleep=self.sleep,
                isolate=self.config.isolate_failures,
            )
            with self._lock:
                self.core.observe_exec(
                    batch.model, max(0.0, timing.finished - timing.started)
                )
                outcomes = runtime.fold(batch, rows, errors, stats, timing)
                for request, outcome in zip(batch.requests, outcomes):
                    self._settle_locked(request.id, outcome)
                self._trim_locked()
                self._cond.notify_all()

    def _shed_locked(self, victims: list[SchedRequest], deadline: bool) -> None:
        """Report shed requests: never silent, waiters woken."""
        for victim in victims:
            runtime = self._models[victim.model]
            if deadline:
                runtime.shed_deadline += 1
            else:
                runtime.shed += 1
            self._settle_locked(victim.id, _shed_error(victim.id, deadline))
        if victims:
            self._trim_locked()
            self._cond.notify_all()

    def _settle_locked(self, rid: int, outcome) -> None:
        """Settle a request with its one outcome (its result, its
        :class:`RequestFailed` or its shed error): hand it to the future
        awaiting it, resolved on that future's loop, or else file it for
        :meth:`result` / :meth:`wait_result`.  An awaited outcome is not
        filed: its awaiter holds it and no front reads the record back.
        Callers trim retention and wake waiters once per settled set."""
        self._pending.discard(rid)
        future = self._futures.pop(rid, None)
        if future is None:
            self._settled[rid] = outcome
            return
        try:
            future.get_loop().call_soon_threadsafe(_resolve, future, outcome)
        except RuntimeError:   # its loop is closed: nobody is left to await it
            pass

    def _trim_locked(self) -> None:
        """Bound retention: oldest outcomes go first; one someone is blocked
        in :meth:`wait_result` on is kept."""
        excess = len(self._settled) - RESULT_CAPACITY
        if excess > 0:
            unwaited = (rid for rid in self._settled if rid not in self._waiting)
            for rid in list(itertools.islice(unwaited, excess)):
                del self._settled[rid]

    # -- threaded mode --------------------------------------------------------

    def start(self) -> "SyncTransport":
        """Spawn the worker thread that runs batches as they become due."""
        with self._lock:
            if self._worker is not None:
                raise RuntimeError("already started")
            self._stopping = False
            self._worker = threading.Thread(target=self._worker_loop, daemon=True)
            self._worker.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Shut down, guaranteeing no submitted request is silently dropped.

        ``drain=True`` joins the worker, then flushes: every queued request
        completes.  ``drain=False`` sheds instead: queued requests are
        counted in ``ServingMetrics.shed``, :meth:`was_shed` returns
        ``True`` and :meth:`wait_result` raises :class:`RequestShed`.  The
        worker is claimed under the lock first, so a racing ``submit``
        either runs its own batch inline or lands in this drain/shed.
        Idempotent, and safe without :meth:`start`.
        """
        with self._lock:
            worker, self._worker = self._worker, None
            self._stopping = True
            self._wake.notify_all()
        if worker is not None:
            worker.join()
        if drain:
            self.flush()
        else:
            with self._lock:
                self._shed_locked(self.core.shed_all(), deadline=False)

    def _worker_loop(self) -> None:
        """Run rounds: take every batch due now, run them serially, then
        sleep until the next event.  A batch that falls due mid-round waits
        for the next round."""
        while True:
            with self._lock:
                while True:
                    if self._stopping:
                        return
                    now = self.clock()
                    self._shed_locked(self.core.shed_blown(now), deadline=True)
                    batches = self._take_locked(now)
                    if batches:
                        break
                    event = self.core.next_event(now)
                    # Floor the sleep: an event landing exactly "now" must
                    # not busy-spin a frozen injected clock.
                    self._wake.wait(None if event is None else max(event - now, 1e-4))
            self._execute(batches)

    # -- metrics --------------------------------------------------------------

    def reset_metrics(self) -> None:
        """Start a fresh measurement window (e.g. after warmup traffic)."""
        with self._lock:
            for runtime in self._models.values():
                runtime.reset()

    def _metrics_locked(self, caches: dict | None = None) -> dict[str, ServingMetrics]:
        """Each model's :class:`ServingMetrics` since :meth:`reset_metrics`;
        ``caches`` holds plan-cache windows already read, by model name."""
        return {name: runtime.metrics(self.core.bucket_target(name),
                                      caches[name] if caches else None)
                for name, runtime in self._models.items()}

    def breaker_snapshots(self) -> dict[str, dict]:
        """Per-model circuit-breaker snapshots (breaker-enabled models only)."""
        with self._lock:
            return {name: runtime.breaker.snapshot()
                    for name, runtime in self._models.items()
                    if runtime.breaker is not None}


class Server(SyncTransport):
    """Shape-bucketed batching server over one model; request ids are ints.

    ``input_shapes`` lists the per-sample ``(C, H, W)`` shapes to pre-build
    plans for (other shapes build on first sight and show as
    ``plan_builds``).  ``name`` is the plan-cache owner tag the metrics'
    hit rate and builds are attributed to; an unnamed server tags itself
    ``server-<n>`` from a process-wide counter, so no two servers share a
    tag.  Every tag keeps an entry in the cache's owner table until
    ``clear_plan_cache()``.  Everything else is :class:`SyncTransport`.
    """

    def __init__(
        self,
        model,
        input_shapes: tuple | list = ((3, 32, 32),),
        config: ServingPolicy | None = None,
        clock: Callable[[], float] = time.perf_counter,
        name: str | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        super().__init__(config, clock, sleep)
        self.name = f"server-{next(_UNNAMED)}" if name is None else name
        self.register(self.name, model, input_shapes)
        executor = self._models[self.name].executor
        self.model, self.fused_layers = executor.model, executor.fused_layers

    def submit(self, image: np.ndarray, deadline: float | None = None) -> int:
        """Enqueue one ``(C, H, W)`` image; returns the request id."""
        return self._submit(self.name, image, deadline)

    def metrics(self) -> ServingMetrics:
        """Statistics since the last :meth:`reset_metrics`."""
        with self._lock:
            return self._metrics_locked()[self.name]

    def breaker_snapshot(self) -> dict | None:
        """The circuit breaker's snapshot (``None`` = disabled)."""
        return self.breaker_snapshots().get(self.name)
