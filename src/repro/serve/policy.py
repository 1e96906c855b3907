"""The serving policy: one dataclass of front-end knobs for every transport.

Admission (``max_pending``), bucketing (``bucket_sizes`` / ``max_latency``
/ ``adaptive_buckets``), shedding (``shed_policy``) and the fault plane
(``retry`` / ``isolate_failures`` / ``breaker_*`` / ``degrade_after``) are
declared and validated once, here, and every transport takes a policy::

    policy = ServingPolicy(max_latency=0.005, breaker_window=16)
    server = Server(model, config=policy)          # single-model sync front
    router = Router(server_config=policy)          # multi-model sync front
    gateway = AsyncGateway(policy)                 # multi-model asyncio front

What is not a knob: retention bounds are the module constants
:data:`repro.serve.server.RESULT_CAPACITY` / ``METRICS_WINDOW``, and a started
transport's worker thread runs one batch at a time on every front.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.serve.sched import CircuitBreaker, RetryPolicy, SchedCore, ShedPolicy

__all__ = ["ServingPolicy"]


@dataclass
class ServingPolicy:
    """Transport-agnostic serving knobs (admission, bucketing, fault plane).

    Every transport takes one (see the module docstring), and
    ``config=None`` means ``ServingPolicy()`` on each.  The defaults are
    fixed max-size buckets and tail-drop admission only.
    """

    bucket_sizes: tuple[int, ...] = (1, 2, 4, 8)
    max_latency: float = 0.01    # seconds a request may wait for batch-mates
    # Admission control: total queued-but-unexecuted requests accepted
    # before submit() sheds with QueueFull.  None = unbounded.
    max_pending: int | None = None
    # Adaptive bucketing: target the smallest bucket the observed arrival
    # rate can fill within max_latency (sched.BucketPolicy) instead of
    # always waiting for the max bucket.
    adaptive_buckets: bool = False
    # Load shedding: "deadline" drops queued requests whose deadline already
    # passed; "newest" keeps the at-the-door-only admission shed (tail-drop).
    shed_policy: str = "newest"
    # Fault tolerance.  retry: backoff policy for transient batch faults
    # (None = fail on first error).  isolate_failures: bisect a raising
    # batch so only the poisoned request(s) fail.  breaker_window enables a
    # per-model circuit breaker over the last N request outcomes (None =
    # disabled); the remaining breaker_* knobs mirror sched.CircuitBreaker.
    # degrade_after demotes a (shape, bucket) workload one step down the
    # backend chain after that many consecutive kernel faults (None = off).
    retry: RetryPolicy | None = None
    isolate_failures: bool = True
    breaker_window: int | None = None
    breaker_threshold: float = 0.5
    breaker_min_samples: int = 8
    breaker_cooldown: float = 1.0
    degrade_after: int | None = None

    def __post_init__(self) -> None:
        if not self.bucket_sizes or any(b < 1 for b in self.bucket_sizes):
            raise ValueError(f"bucket_sizes must be positive, got {self.bucket_sizes}")
        self.bucket_sizes = tuple(sorted(set(self.bucket_sizes)))
        if self.max_latency <= 0:
            raise ValueError(f"max_latency must be positive, got {self.max_latency}")
        if self.max_pending is not None and self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1 or None, got {self.max_pending}")
        if self.shed_policy not in ShedPolicy.POLICIES:
            raise ValueError(
                f"shed_policy must be one of {ShedPolicy.POLICIES}, "
                f"got {self.shed_policy!r}"
            )
        if self.breaker_window is not None and self.breaker_window < 1:
            raise ValueError(
                f"breaker_window must be >= 1 or None, got {self.breaker_window}"
            )
        if self.degrade_after is not None and self.degrade_after < 1:
            raise ValueError(
                f"degrade_after must be >= 1 or None, got {self.degrade_after}"
            )

    # -- derived accessors the transports share --------------------------------

    def make_core(self) -> SchedCore:
        """A fresh :class:`SchedCore` under these admission/bucket/shed knobs."""
        return SchedCore(
            bucket_sizes=self.bucket_sizes, max_latency=self.max_latency,
            max_pending=self.max_pending, adaptive_buckets=self.adaptive_buckets,
            shed_policy=self.shed_policy,
        )

    def make_breaker(self) -> CircuitBreaker | None:
        """A fresh :class:`CircuitBreaker` per these knobs (None = disabled)."""
        if self.breaker_window is None:
            return None
        return CircuitBreaker(
            window=self.breaker_window,
            threshold=self.breaker_threshold,
            min_samples=self.breaker_min_samples,
            cooldown=self.breaker_cooldown,
        )
