"""Inference serving front-end: scheduling core, transports, routing.

The ROADMAP's heavy-traffic north star meets the plan cache here: incoming
single-image requests are coalesced into shape-bucketed batches so every
bucket executes on a warm :class:`repro.backend.ModelPlan` entry, and the
plan-cache hit rate becomes a first-class serving metric next to p50/p95
latency and throughput.  The tier is three layers:

- **scheduling core** (:mod:`repro.serve.sched`) — pure, clock-injected
  bucketing, shedding and DRR fairness policies composed, with the
  admission bound, by :class:`SchedCore`;
- **transport** — one transport (``SyncTransport``, in
  :mod:`repro.serve.server`) over a single :class:`SchedCore`, fronted by
  :class:`Server` (one model), :class:`Router` (many models, DRR order
  between them, shared plan cache with owner-tagged accounting) and the
  asyncio :class:`AsyncGateway` (``await``-able submit, per-request
  latency budgets, shed surfaced as exceptions); batches run serially
  through the one :class:`ModelExecutor` batch engine
  (:mod:`repro.serve.engine`) — which is what makes every front's outputs
  bitwise-identical at a fixed bucket size — and completions fold into the
  same per-model ``ModelRuntime`` record.  Models are added with one
  ``register``, and each request settles to one outcome (result, failure
  or shed) kept in one bounded table;
- **observability** — :class:`ServingMetrics` / :class:`RouterMetrics`
  with the queue-wait vs exec-time latency split, deadline-miss rate,
  shed-by-deadline counts and the live adaptive bucket target;
  ``status`` answers a request's lifecycle
  (``PENDING | DONE | FAILED | SHED | EVICTED``).

Every transport takes one :class:`ServingPolicy`; ``None`` means
``ServingPolicy()`` on each.

Failure paths are never silent (see the README's "Failure semantics"):
:class:`QueueFull` (admission), :class:`RequestShed` (shutdown without
drain), :class:`DeadlineExceeded` (latency budget blown while queued),
:class:`RequestFailed` (execution failed after bisect isolation and the
:class:`RetryPolicy` backoff budget), :class:`ModelUnavailable` (the
per-model :class:`CircuitBreaker` is open), :class:`ResultTimeout` (a
``wait_result`` that gave up, carrying the request's status).  A blocked
``wait_result`` always gets its request's outcome: retention never evicts
an outcome someone waits on.
"""
from repro.serve.engine import BatchTiming, ExecStats, ModelExecutor, RequestFailed
from repro.serve.gateway import AsyncGateway
from repro.serve.policy import ServingPolicy
from repro.serve.router import Router, RouterHandle, RouterMetrics
from repro.serve.sched import (
    Batch,
    BucketPolicy,
    CircuitBreaker,
    FairnessPolicy,
    RetryPolicy,
    SchedCore,
    SchedRequest,
    ShedPolicy,
)
from repro.serve.server import (
    DeadlineExceeded,
    ModelUnavailable,
    QueueFull,
    RequestResult,
    RequestShed,
    RequestStatus,
    ResultTimeout,
    Server,
    ServingMetrics,
)

__all__ = [
    "AsyncGateway",
    "Batch",
    "BatchTiming",
    "BucketPolicy",
    "CircuitBreaker",
    "DeadlineExceeded",
    "ExecStats",
    "FairnessPolicy",
    "ModelExecutor",
    "ModelUnavailable",
    "QueueFull",
    "RequestFailed",
    "RequestResult",
    "RequestShed",
    "RequestStatus",
    "ResultTimeout",
    "RetryPolicy",
    "Router",
    "RouterHandle",
    "RouterMetrics",
    "SchedCore",
    "SchedRequest",
    "Server",
    "ServingMetrics",
    "ServingPolicy",
    "ShedPolicy",
]
