"""Transport-agnostic scheduling core of the serving tier.

Pure policy objects: no threads, no locks, no wall clock.  Every method
takes ``now`` explicitly (or consumes clock *readings* recorded by the
caller), so a policy's full decision sequence is replayable from a request
trace — unit tests and the ``bench_async_gateway`` simulations drive these
classes with a virtual clock and get bit-identical schedules on any
machine.  The transport behind :class:`repro.serve.server.Server`,
:class:`repro.serve.router.Router` and the asyncio
:class:`repro.serve.gateway.AsyncGateway` drives one :class:`SchedCore`,
owns only its lock, and consults the core for every decision:

- :class:`AdmissionPolicy` — bounded pending queue: reject at the door
  instead of letting an overloaded queue grow without bound;
- :class:`BucketPolicy` — batch-size selection; in ``adaptive`` mode the
  target bucket follows an EWMA of the arrival rate: small buckets under
  light load for latency, large under heavy load for throughput;
- :class:`ShedPolicy` — deadline-aware shedding: drop requests whose
  budget is already blown (``deadline < now + exec_estimate``) rather than
  the newest arrival, which still has its whole budget ahead of it;
- :class:`FairnessPolicy` — deficit round robin between models, so a heavy
  model's long batches cannot ruin a light model's p95 (``fifo`` is the
  ablation baseline);
- :class:`RetryPolicy` — bounded exponential backoff with *deterministic*
  (hash-seeded) jitter;
- :class:`CircuitBreaker` — per-model fail-fast on a windowed error rate,
  with a half-open probe after the cooldown;
- :class:`SchedCore` — the composite the transports drive: per-model
  shape-keyed queues, admission with deadline-aware displacement,
  fairness-ordered batch formation, and the next event a loop sleeps to.
"""
from __future__ import annotations

import itertools
import zlib
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "AdmissionPolicy",
    "Batch",
    "BucketPolicy",
    "CircuitBreaker",
    "FairnessPolicy",
    "RetryPolicy",
    "SchedCore",
    "SchedRequest",
    "ShedPolicy",
    "SubmitOutcome",
]


@dataclass
class SchedRequest:
    """One queued request as the scheduling core sees it.

    ``payload`` is opaque to the core (the transports stash the image
    there); ``deadline`` is an *absolute* clock reading in the same time
    base as every ``now`` handed to the core.
    """

    id: int
    model: str
    shape: tuple
    arrived_at: float
    deadline: float | None = None
    payload: object = None


@dataclass
class Batch:
    """One schedulable unit: requests of one (model, shape) padded to
    ``bucket`` slots."""

    model: str
    shape: tuple
    requests: list[SchedRequest]
    bucket: int


@dataclass
class SubmitOutcome:
    """What admission decided: ``accepted`` (with the enqueued request) or
    not, plus any blown-budget victims displaced to make room."""

    accepted: bool
    request: SchedRequest | None
    displaced: list[SchedRequest] = field(default_factory=list)


class AdmissionPolicy:
    """Bounded-queue backpressure: at most ``max_pending`` queued requests.

    The policy itself is just the bound; *what* to do at capacity (reject
    the newcomer, or displace a blown-budget victim first) is composed in
    :meth:`SchedCore.submit` from the :class:`ShedPolicy`.  The transport
    counts rejections and sheds in its per-model metrics window.
    """

    def __init__(self, max_pending: int | None = None) -> None:
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1 or None, got {max_pending}")
        self.max_pending = max_pending

    def at_capacity(self, pending: int) -> bool:
        return self.max_pending is not None and pending >= self.max_pending


class BucketPolicy:
    """Batch-size selection, optionally adapted to the arrival rate.

    Fixed mode (``adaptive=False``) always targets the largest configured
    bucket.  Adaptive mode tracks an EWMA of the
    inter-arrival gap and targets the smallest configured bucket that the
    expected arrivals of one flush window (``rate * max_latency``) can
    fill: under light load a request stops waiting for batch-mates that
    are not coming (latency), under heavy load batches grow to amortise
    per-batch overhead (throughput).
    """

    def __init__(
        self,
        bucket_sizes: tuple[int, ...] = (1, 2, 4, 8),
        max_latency: float = 0.01,
        adaptive: bool = False,
        alpha: float = 0.25,
    ) -> None:
        if not bucket_sizes or any(b < 1 for b in bucket_sizes):
            raise ValueError(f"bucket_sizes must be positive, got {bucket_sizes}")
        if max_latency <= 0:
            raise ValueError(f"max_latency must be positive, got {max_latency}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.bucket_sizes = tuple(sorted(set(bucket_sizes)))
        self.max_latency = max_latency
        self.adaptive = adaptive
        self.alpha = alpha
        self._gap_ewma: float | None = None
        self._last_arrival: float | None = None

    @property
    def max_bucket(self) -> int:
        return self.bucket_sizes[-1]

    def fit_bucket(self, n: int) -> int:
        """Smallest configured bucket that fits ``n`` requests."""
        for size in self.bucket_sizes:
            if n <= size:
                return size
        return self.max_bucket

    def observe_arrival(self, now: float) -> None:
        """Fold one arrival into the inter-arrival EWMA."""
        if self._last_arrival is not None:
            gap = max(now - self._last_arrival, 1e-9)
            if self._gap_ewma is None:
                self._gap_ewma = gap
            else:
                self._gap_ewma += self.alpha * (gap - self._gap_ewma)
        self._last_arrival = now

    def arrival_rate(self) -> float:
        """Smoothed arrivals/second (0.0 until two arrivals were seen)."""
        if self._gap_ewma is None:
            return 0.0
        return 1.0 / self._gap_ewma

    def target_bucket(self) -> int:
        """The bucket size batches should currently aim for."""
        if not self.adaptive:
            return self.max_bucket
        expected = self.arrival_rate() * self.max_latency
        for size in self.bucket_sizes:
            # Relative tolerance so a rate that is *exactly* size/window
            # (up to float rounding of the gap EWMA) picks that bucket
            # rather than jumping a tier.
            if size >= expected * (1.0 - 1e-9):
                return size
        return self.max_bucket


class ShedPolicy:
    """Which queued request to drop when load must be shed.

    ``deadline`` (the policy this tier exists for): a request is *blown*
    once ``deadline < now + exec_estimate`` — even starting it right now
    could not meet its SLO, so executing (or keeping) it wastes capacity
    that viable requests need.  ``newest`` is the naive baseline: the
    arriving request is refused, although it is precisely the one with its
    whole budget left.  A request *exactly at* its deadline
    (``deadline == now`` with a zero estimate) is still viable — blown-ness
    is strict.
    """

    POLICIES = ("deadline", "newest")

    def __init__(self, policy: str = "deadline") -> None:
        if policy not in self.POLICIES:
            raise ValueError(f"policy must be one of {self.POLICIES}, got {policy!r}")
        self.policy = policy

    def blown(self, request: SchedRequest, now: float,
              exec_estimate: float = 0.0) -> bool:
        if request.deadline is None:
            return False
        return request.deadline < now + exec_estimate

    def split_blown(
        self, requests, now: float, exec_estimate: float = 0.0
    ) -> tuple[list[SchedRequest], list[SchedRequest]]:
        """Partition ``requests`` into (viable, blown)."""
        viable, blown = [], []
        for request in requests:
            (blown if self.blown(request, now, exec_estimate) else viable).append(
                request
            )
        return viable, blown


class FairnessPolicy:
    """Deficit round robin between models (``fifo`` is the ablation).

    Each call to :meth:`select` picks one batch to run next.  DRR keeps a
    per-model deficit counter in *cost* units (the caller prices batches,
    e.g. padded bucket size x per-request cost): a model is visited in
    round-robin order, earns ``quantum`` per visit, and runs when its
    deficit covers its next batch — so over any window each active model
    receives service proportional to its quantum regardless of how
    expensive the other models' batches are.  A model whose queue empties
    leaves the round and forfeits its deficit (standard DRR, which is what
    keeps an idle model from hoarding credit and bursting later).  ``fifo``
    serves whichever model's head request arrived first — no isolation,
    the baseline the fairness ablation in ``bench_async_gateway`` measures
    against.
    """

    MODES = ("drr", "fifo")

    def __init__(self, mode: str = "drr", quantum: float = 1.0) -> None:
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        self.mode = mode
        self.quantum = quantum
        self._order: list[str] = []
        self._deficit: dict[str, float] = {}
        self._ptr = 0
        self._turn: str | None = None

    def deficit(self, model: str) -> float:
        return self._deficit.get(model, 0.0)

    def select(self, candidates: dict[str, tuple[float, float]]) -> str | None:
        """Choose (and charge) the model whose batch runs next.

        ``candidates`` maps each model with a runnable batch to
        ``(cost, head_arrived_at)``.  Returns ``None`` only when empty.
        """
        if not candidates:
            return None
        if self.mode == "fifo":
            return min(candidates, key=lambda m: (candidates[m][1], m))
        # Sync the active set: departures leave the round (deficit forfeited,
        # pointer adjusted so the rotation order is undisturbed), arrivals
        # join at the tail with zero credit.
        for model in [m for m in self._order if m not in candidates]:
            index = self._order.index(model)
            del self._order[index]
            del self._deficit[model]
            if index < self._ptr:
                self._ptr -= 1
            if self._turn == model:
                self._turn = None
        for model in sorted(candidates):
            if model not in self._deficit:
                self._order.append(model)
                self._deficit[model] = 0.0
        count = len(self._order)
        self._ptr %= count
        # An open turn keeps running while its banked deficit covers the
        # next batch — without earning new quantum for staying.
        if self._turn is not None:
            cost = candidates[self._turn][0]
            if self._deficit[self._turn] >= cost:
                self._deficit[self._turn] -= cost
                return self._turn
            self._ptr = (self._order.index(self._turn) + 1) % count
            self._turn = None
        max_cost = max(cost for cost, _ in candidates.values())
        rounds = count * (int(max_cost / self.quantum) + 2)
        for _ in range(rounds):
            model = self._order[self._ptr]
            self._deficit[model] += self.quantum
            cost = candidates[model][0]
            if self._deficit[model] >= cost:
                self._deficit[model] -= cost
                self._turn = model
                return model
            self._ptr = (self._ptr + 1) % count
        raise RuntimeError("DRR failed to converge")  # pragma: no cover


class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    A policy instance answers two questions, both pure: may attempt ``n``
    be retried (:meth:`should_retry`), and how long to back off before the
    retry (:meth:`delay`).  The jitter that de-synchronises concurrent
    retriers is *hashed* from ``(seed, token, attempt)`` rather than drawn
    from ``random`` — the same request retries on the same schedule in
    every run, which is what lets the fault-injection suite assert exact
    virtual-clock timelines.  The caller supplies ``token`` (a request or
    batch id) so different requests still spread out.

    ``max_attempts`` counts total tries: 1 means fail on first error
    (retries disabled), 3 means up to two retries.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        base_delay: float = 0.002,
        multiplier: float = 2.0,
        max_delay: float = 0.25,
        jitter: float = 0.5,
        seed: int = 0,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("base_delay and max_delay must be >= 0")
        if multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {multiplier}")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {jitter}")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter
        self.seed = seed

    def should_retry(self, attempt: int) -> bool:
        """Whether attempt ``attempt`` (0-based) may be followed by another."""
        return attempt + 1 < self.max_attempts

    def delay(self, attempt: int, token: int = 0) -> float:
        """Backoff before the retry that follows attempt ``attempt``."""
        base = min(self.base_delay * self.multiplier ** attempt, self.max_delay)
        if self.jitter == 0.0 or base == 0.0:
            return base
        crc = zlib.crc32(f"{self.seed}:{token}:{attempt}".encode())
        return base * (1.0 + self.jitter * (crc / 4294967296.0))


class CircuitBreaker:
    """Windowed error-rate circuit breaker (pure, clock-injected).

    States: ``closed`` (all traffic admitted, outcomes recorded in a
    sliding window), ``open`` (everything rejected until ``cooldown``
    elapses — the fail-fast that keeps a broken model from dragging the
    shared worker down), ``half_open`` (exactly one probe request admitted;
    its success closes, its failure re-opens).  Every transition
    is timestamped in :attr:`transitions`, which is what the chaos soak's
    "breaker transitions are visible" acceptance gate reads.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        window: int = 32,
        threshold: float = 0.5,
        min_samples: int = 8,
        cooldown: float = 1.0,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        self.window = window
        self.threshold = threshold
        self.min_samples = min_samples
        self.cooldown = cooldown
        self.state = self.CLOSED
        self.opens = 0
        self.closes = 0
        self.rejected = 0
        self.transitions: list[tuple[float, str, str]] = []
        self._outcomes: deque[bool] = deque(maxlen=window)
        self._opened_at: float | None = None
        self._probe_issued = False

    def _transition(self, now: float, state: str) -> None:
        self.transitions.append((now, self.state, state))
        self.state = state
        if state == self.OPEN:
            self.opens += 1
            self._opened_at = now
        elif state == self.CLOSED:
            self.closes += 1
            self._outcomes.clear()
        elif state == self.HALF_OPEN:
            self._probe_issued = False

    def error_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        return sum(1 for ok in self._outcomes if not ok) / len(self._outcomes)

    def allow(self, now: float) -> bool:
        """May a request be admitted right now?  (Counts rejections.)"""
        if self.state == self.OPEN:
            if self._opened_at is not None \
                    and now >= self._opened_at + self.cooldown:
                self._transition(now, self.HALF_OPEN)
            else:
                self.rejected += 1
                return False
        if self.state == self.HALF_OPEN:
            if self._probe_issued:
                self.rejected += 1
                return False
            self._probe_issued = True
        return True

    def record(self, success: bool, now: float) -> None:
        """Fold one request outcome in; may transition the state."""
        if self.state == self.HALF_OPEN:
            # A probe decided: one success is evidence of recovery, one
            # failure means the cooldown restarts from now.
            self._transition(now, self.CLOSED if success else self.OPEN)
            return
        self._outcomes.append(success)
        if (
            self.state == self.CLOSED
            and len(self._outcomes) >= self.min_samples
            and self.error_rate() >= self.threshold
        ):
            self._transition(now, self.OPEN)

    def snapshot(self) -> dict:
        """JSON-friendly state for metrics surfaces."""
        return {
            "state": self.state,
            "opens": self.opens,
            "closes": self.closes,
            "rejected": self.rejected,
            "error_rate": self.error_rate(),
            "transitions": [list(t) for t in self.transitions],
        }


@dataclass
class _ModelState:
    """Per-model queues and policies."""

    name: str
    admission: AdmissionPolicy
    buckets: BucketPolicy
    request_cost: float
    exec_estimate: float
    # exec_estimate=None at registration: follow observe_exec's EWMA, seeded
    # by the first observation (exec_seen) rather than the 0.0 placeholder.
    exec_auto: bool = False
    exec_seen: bool = False
    queues: dict[tuple, deque] = field(default_factory=dict)
    pending: int = 0


class SchedCore:
    """The composite scheduling brain the transports drive.

    Holds per-model shape-keyed queues and the four policies; every method
    is synchronous, lock-free and takes ``now`` — the serving transport
    calls it under its lock, the deterministic benchmarks from a
    virtual-clock simulation, and both observe the identical schedule.
    """

    def __init__(
        self,
        bucket_sizes: tuple[int, ...] = (1, 2, 4, 8),
        max_latency: float = 0.01,
        max_pending: int | None = None,
        adaptive_buckets: bool = True,
        shed_policy: str = "deadline",
        fairness: str = "drr",
        quantum: float | None = None,
        alpha: float = 0.25,
    ) -> None:
        self._defaults = dict(
            bucket_sizes=tuple(bucket_sizes),
            max_latency=max_latency,
            max_pending=max_pending,
            adaptive=adaptive_buckets,
            alpha=alpha,
        )
        self.shed = ShedPolicy(policy=shed_policy)
        self.fairness = FairnessPolicy(
            mode=fairness,
            quantum=float(max(bucket_sizes)) if quantum is None else quantum,
        )
        self._models: dict[str, _ModelState] = {}
        self._ids = itertools.count()

    # -- registration ----------------------------------------------------------

    def add_model(
        self,
        name: str,
        max_latency: float | None = None,
        request_cost: float = 1.0,
        exec_estimate: float | None = 0.0,
    ) -> None:
        """Register a model's queues and per-model policy knobs.

        ``request_cost`` prices one padded batch slot for the DRR
        accounting (relative units — a model whose batches take ~20x
        longer should cost ~20x).  ``exec_estimate`` is the expected batch
        execution time the deadline shed uses to call a budget blown
        *before* wasting the execution; ``None`` auto-calibrates it — the
        estimate starts at 0.0 and follows an EWMA of the measured batch
        execution spans the transport reports via :meth:`observe_exec`.
        """
        if name in self._models:
            raise ValueError(f"model {name!r} already registered")
        if request_cost <= 0:
            raise ValueError(f"request_cost must be positive, got {request_cost}")
        if exec_estimate is not None and exec_estimate < 0:
            raise ValueError(
                f"exec_estimate must be >= 0 or None, got {exec_estimate}"
            )
        defaults = self._defaults
        self._models[name] = _ModelState(
            name=name,
            admission=AdmissionPolicy(defaults["max_pending"]),
            buckets=BucketPolicy(
                defaults["bucket_sizes"],
                max_latency if max_latency is not None else defaults["max_latency"],
                adaptive=defaults["adaptive"],
                alpha=defaults["alpha"],
            ),
            request_cost=request_cost,
            exec_estimate=0.0 if exec_estimate is None else exec_estimate,
            exec_auto=exec_estimate is None,
        )

    def observe_exec(self, model: str, seconds: float,
                     alpha: float = 0.25) -> float:
        """Fold one measured batch execution span into the model's estimate.

        Only auto-calibrating models (registered with ``exec_estimate=None``)
        update — a statically configured estimate is an operator's pin and
        stays put.  The first observation seeds the EWMA; later ones fold in
        with ``alpha`` (matching :class:`BucketPolicy`'s arrival smoothing).
        Returns the current estimate either way, so transports can log it.
        """
        state = self._require(model)
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        if not state.exec_auto:
            return state.exec_estimate
        if state.exec_seen:
            state.exec_estimate += alpha * (seconds - state.exec_estimate)
        else:
            state.exec_estimate = seconds
            state.exec_seen = True
        return state.exec_estimate

    def models(self) -> tuple[str, ...]:
        return tuple(self._models)

    def _require(self, name: str) -> _ModelState:
        try:
            return self._models[name]
        except KeyError:
            raise KeyError(
                f"no model {name!r} registered; have {sorted(self._models)}"
            ) from None

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        model: str,
        shape: tuple,
        now: float,
        deadline: float | None = None,
        payload: object = None,
    ) -> SubmitOutcome:
        """Admit one request, or say why not.

        At capacity, the ``deadline`` shed policy first displaces queued
        requests whose budget is already blown (they could not be served in
        time anyway) and admits the newcomer into the freed slot; only a
        queue full of *viable* work rejects it (backpressure).  The
        ``newest`` policy rejects the newcomer outright — the classic
        tail-drop whose cost the shed ablation measures.
        """
        state = self._require(model)
        state.buckets.observe_arrival(now)
        displaced: list[SchedRequest] = []
        if state.admission.at_capacity(state.pending):
            if self.shed.policy == "deadline":
                displaced = self._shed_blown(state, now)
            if state.admission.at_capacity(state.pending):
                return SubmitOutcome(False, None, displaced)
        request = SchedRequest(
            id=next(self._ids), model=model, shape=tuple(shape),
            arrived_at=now, deadline=deadline, payload=payload,
        )
        state.queues.setdefault(request.shape, deque()).append(request)
        state.pending += 1
        return SubmitOutcome(True, request, displaced)

    # -- shedding --------------------------------------------------------------

    def _shed_blown(self, state: _ModelState, now: float) -> list[SchedRequest]:
        victims: list[SchedRequest] = []
        for shape, queue in state.queues.items():
            viable, blown = self.shed.split_blown(queue, now, state.exec_estimate)
            if blown:
                queue.clear()
                queue.extend(viable)
                victims.extend(blown)
        state.pending -= len(victims)
        return victims

    def shed_blown(self, now: float) -> list[SchedRequest]:
        """Drop every queued request whose latency budget is already blown
        (``deadline`` policy only; no-op under ``newest``).  Returns the
        victims so the transport can fail their waiters."""
        if self.shed.policy != "deadline":
            return []
        victims: list[SchedRequest] = []
        for state in self._models.values():
            victims.extend(self._shed_blown(state, now))
        return victims

    def shed_all(self) -> list[SchedRequest]:
        """Drain every queue unexecuted (shutdown without drain)."""
        victims: list[SchedRequest] = []
        for state in self._models.values():
            for queue in state.queues.values():
                victims.extend(queue)
                queue.clear()
            state.pending = 0
        return victims

    # -- batch formation -------------------------------------------------------

    def _ready_shape(
        self, state: _ModelState, now: float, force: bool
    ) -> tuple | None:
        """The model's due shape with the oldest head request, if any."""
        best_shape, best_age = None, None
        target = state.buckets.target_bucket()
        for shape, queue in state.queues.items():
            if not queue:
                continue
            head_age = now - queue[0].arrived_at
            due = force or len(queue) >= target \
                or head_age >= state.buckets.max_latency
            if due and (best_age is None or head_age > best_age):
                best_shape, best_age = shape, head_age
        return best_shape

    def next_batch(self, now: float, force: bool = False) -> Batch | None:
        """Form the one batch that should execute next, in fairness order.

        A (model, shape) queue is *due* when it can fill the model's
        current target bucket, its head request has waited ``max_latency``,
        or ``force`` (drain) is set.  Overdue/drained queues batch up to
        the model's max bucket (the remainder must not wait another
        window); full-trigger queues batch exactly the target.  Returns
        ``None`` when nothing is due — call again after
        :meth:`next_event`.
        """
        candidates: dict[str, tuple[float, float]] = {}
        picks: dict[str, tuple[tuple, int, int]] = {}
        for name, state in self._models.items():
            shape = self._ready_shape(state, now, force)
            if shape is None:
                continue
            queue = state.queues[shape]
            target = state.buckets.target_bucket()
            overdue = force or now - queue[0].arrived_at >= state.buckets.max_latency
            take = min(len(queue), state.buckets.max_bucket if overdue else target)
            bucket = state.buckets.fit_bucket(take)
            candidates[name] = (
                state.request_cost * bucket, queue[0].arrived_at,
            )
            picks[name] = (shape, take, bucket)
        winner = self.fairness.select(candidates)
        if winner is None:
            return None
        state = self._models[winner]
        shape, take, bucket = picks[winner]
        queue = state.queues[shape]
        requests = [queue.popleft() for _ in range(take)]
        state.pending -= take
        return Batch(model=winner, shape=shape, requests=requests, bucket=bucket)

    # -- introspection ---------------------------------------------------------

    def next_event(self, now: float) -> float | None:
        """Earliest clock reading at which a new decision becomes possible:
        a head request's flush deadline, or (under the ``deadline`` shed
        policy) the earliest request deadline.  ``None`` when idle."""
        events: list[float] = []
        for state in self._models.values():
            for queue in state.queues.values():
                if not queue:
                    continue
                events.append(queue[0].arrived_at + state.buckets.max_latency)
                if self.shed.policy == "deadline":
                    deadlines = [
                        r.deadline for r in queue if r.deadline is not None
                    ]
                    if deadlines:
                        events.append(min(deadlines) - state.exec_estimate)
        return min(events, default=None)

    def pending_count(self, model: str | None = None) -> int:
        if model is not None:
            return self._require(model).pending
        return sum(state.pending for state in self._models.values())

    def bucket_target(self, model: str) -> int:
        return self._require(model).buckets.target_bucket()

    def stats(self, model: str) -> dict:
        state = self._require(model)
        return {
            "pending": state.pending,
            "bucket_target": state.buckets.target_bucket(),
            "arrival_rate": state.buckets.arrival_rate(),
            "exec_estimate": state.exec_estimate,
            "exec_auto": state.exec_auto,
        }
