"""The asyncio front of the serving transport.

:class:`AsyncGateway` is the ``await``-able front-end over
:class:`~repro.serve.server.SyncTransport`, the transport ``Server`` and
``Router`` share: ``submit`` admits the request through the transport and
awaits an :class:`asyncio.Future` that resolves with the request's
:class:`~repro.serve.server.RequestResult` or raises when the request is
shed (:class:`~repro.serve.server.QueueFull`,
:class:`~repro.serve.server.DeadlineExceeded`) or fails
(:class:`~repro.serve.engine.RequestFailed`).  A per-request latency
*budget* becomes an absolute deadline the
:class:`~repro.serve.sched.ShedPolicy` enforces.

The transport's one worker thread runs the batches, one at a time in the
scheduling core's order, and resolves each future on its own event loop
(``call_soon_threadsafe``) when the request settles.  Admission, shedding,
the deadline-shed calibration, the per-model statistics and shutdown are
the transport's, so ``metrics()`` means the same thing on every transport,
and the same :class:`~repro.serve.engine.ModelExecutor` makes outputs at a
fixed bucket bit-identical to ``Server``'s and to per-request inference.
"""
from __future__ import annotations

import asyncio

import numpy as np

from repro.serve.server import RequestResult, ServingMetrics, SyncTransport

__all__ = ["AsyncGateway"]


class AsyncGateway(SyncTransport):
    """Asyncio multi-model serving gateway on the scheduling core.

    Usage::

        async with AsyncGateway(ServingPolicy(max_latency=0.005,
                                              shed_policy="deadline")) as gw:
            gw.register("small", "mobilenet", input_shapes=[(3, 16, 16)],
                        width_mult=0.25)
            result = await gw.submit("small", image, budget=0.05)

    ``submit`` resolves once the request's batch completed; it raises
    :class:`QueueFull` when admission rejects (after the deadline policy
    displaced any blown-budget victims) and :class:`DeadlineExceeded` when
    the request itself is shed with its budget blown.  Every await-er of a
    shed request gets the exception — nothing is silently dropped.

    Constructed and registered like every transport
    (:class:`~repro.serve.server.SyncTransport`).  The worker thread starts
    with the first ``submit`` (or ``async with``).  Must be driven inside a
    running event loop.
    """

    async def submit(
        self, model: str, image: np.ndarray, budget: float | None = None
    ) -> RequestResult:
        """Route one ``(C, H, W)`` image to ``model``; await its result.

        ``budget`` is the request's latency SLO in seconds — converted to
        an absolute deadline on the gateway clock at submission.  Under the
        ``deadline`` shed policy a request whose budget expires while
        queued resolves with :class:`DeadlineExceeded` instead of a result.
        """
        future = asyncio.get_running_loop().create_future()
        if self._worker is None:
            self.start()
        deadline = None if budget is None else self.clock() + budget
        self._submit(model, image, deadline, future)
        return await future

    def kick(self) -> None:
        """Wake the worker now (deterministic tests with an injected clock
        advance the clock, then kick)."""
        with self._lock:
            self._wake.notify()

    async def stop(self, drain: bool = True) -> None:
        """Stop the worker; drain or shed what is still queued.

        ``drain=True`` runs every queued request; ``drain=False`` sheds
        them: each await-er gets :class:`~repro.serve.server.RequestShed`
        (counted in ``ServingMetrics.shed``).  A batch the worker is running
        finishes first, and the loop is blocked until then.  Idempotent.
        """
        SyncTransport.stop(self, drain)

    async def __aenter__(self) -> "AsyncGateway":
        if self._worker is None:
            self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop(drain=exc_type is None)

    def metrics(self) -> dict[str, ServingMetrics]:
        """Per-model :class:`ServingMetrics` over the gateway's lifetime
        (the same record and metrics code as the sync transports)."""
        with self._lock:
            return self._metrics_locked()
