"""Asyncio serving gateway: bitwise parity with the sync server + SLO paths.

No ``pytest-asyncio`` dependency: each test is a plain function running its
coroutine under ``asyncio.run`` — the gateway needs nothing from the test
framework beyond an event loop.
"""
import asyncio
import threading

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultSpec, use_faults
from repro.models import build_model
from repro.serve import (
    AsyncGateway,
    DeadlineExceeded,
    QueueFull,
    RequestFailed,
    RequestResult,
    RequestShed,
    RequestStatus,
    Server,
    ServingPolicy,
)
from repro.utils import seed_all

INPUT = (3, 16, 16)


@pytest.fixture(autouse=True)
def _seed():
    seed_all(33)


def _model():
    return build_model("mobilenet", scheme="scc", width_mult=0.25,
                       rng=np.random.default_rng(2))


def _images(n, shape=INPUT, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape).astype(np.float32) for _ in range(n)]


# ---------------------------------------------------------------------------
# Acceptance: gateway == sync server == per-request, bitwise, fixed bucket
# ---------------------------------------------------------------------------

def test_gateway_outputs_bitwise_equal_sync_server_and_per_request():
    images = _images(8, seed=10)

    # Sync server, coalesced.
    server = Server(_model(), input_shapes=[INPUT],
                    config=ServingPolicy(bucket_sizes=(4,), max_latency=1.0))
    ids = [server.submit(im) for im in images]
    server.flush()
    sync_out = [server.result(i).output for i in ids]

    # Sync server, per-request (each rides its own padded bucket).
    solo_server = Server(_model(), input_shapes=[INPUT],
                         config=ServingPolicy(bucket_sizes=(4,), max_latency=1.0))
    solo_out = []
    for im in images:
        rid = solo_server.submit(im)
        solo_server.flush()
        solo_out.append(solo_server.result(rid).output)

    # Async gateway at the same fixed bucket.  However the scheduler loop
    # splits the stream into batches, every batch pads to bucket 4, so the
    # outputs must be bit-identical to both sync modes.
    async def run_gateway():
        gw = AsyncGateway(ServingPolicy(bucket_sizes=(4,), max_latency=0.005,
                                        adaptive_buckets=False,
                                        shed_policy="deadline"))
        gw.register("m", _model(), input_shapes=[INPUT])
        results = await asyncio.gather(
            *[gw.submit("m", im, budget=30.0) for im in images]
        )
        await gw.stop()
        return [r.output for r in results]

    async_out = asyncio.run(run_gateway())
    for sync_row, solo_row, async_row in zip(sync_out, solo_out, async_out):
        np.testing.assert_array_equal(sync_row, solo_row)
        np.testing.assert_array_equal(sync_row, async_row)


# ---------------------------------------------------------------------------
# SLO paths: deadline shed, admission backpressure, shutdown semantics
# ---------------------------------------------------------------------------

def test_blown_budget_resolves_with_deadline_exceeded():
    async def main():
        gw = AsyncGateway(ServingPolicy(bucket_sizes=(4,), max_latency=0.005,
                                        adaptive_buckets=True,
                                        shed_policy="deadline"))
        gw.register("m", _model(), input_shapes=[INPUT])
        # A budget that is already blown at submission: deterministic shed
        # on the scheduler's first pass, no timing assumptions.
        with pytest.raises(DeadlineExceeded, match="budget"):
            await gw.submit("m", _images(1)[0], budget=-1.0)
        metrics = gw.metrics()["m"]
        assert metrics.shed_deadline == 1 and metrics.completed == 0
        # The gateway still serves viable traffic afterwards.
        result = await gw.submit("m", _images(1, seed=2)[0], budget=30.0)
        assert result.output.shape == (10,)
        await gw.stop()

    asyncio.run(main())


def test_admission_backpressure_raises_queue_full():
    async def main():
        gw = AsyncGateway(ServingPolicy(bucket_sizes=(8,), max_latency=30.0,
                                        max_pending=2, adaptive_buckets=False,
                                        shed_policy="deadline"))
        gw.register("m", _model(), input_shapes=[INPUT])
        images = _images(3, seed=3)
        # Enqueue two (bucket 8 + long flush window: nothing dispatches);
        # the third submit hits the bound and sheds at the door.  Viable
        # queued work is never displaced — only blown budgets are.
        waiters = [asyncio.ensure_future(gw.submit("m", im, budget=60.0))
                   for im in images[:2]]
        await asyncio.sleep(0)            # let both submissions enqueue
        with pytest.raises(QueueFull, match="capacity"):
            await gw.submit("m", images[2], budget=60.0)
        assert gw.metrics()["m"].rejected == 1
        await gw.stop()                   # drains the two queued requests
        results = await asyncio.gather(*waiters)
        assert all(r.output.shape == (10,) for r in results)

    asyncio.run(main())


def test_stop_without_drain_sheds_awaiters():
    async def main():
        gw = AsyncGateway(ServingPolicy(bucket_sizes=(8,), max_latency=30.0,
                                        adaptive_buckets=False,
                                        shed_policy="deadline"))
        gw.register("m", _model(), input_shapes=[INPUT])
        waiters = [asyncio.ensure_future(gw.submit("m", im, budget=60.0))
                   for im in _images(3, seed=4)]
        await asyncio.sleep(0)
        await gw.stop(drain=False)
        outcomes = await asyncio.gather(*waiters, return_exceptions=True)
        assert all(isinstance(o, RequestShed) for o in outcomes)

    asyncio.run(main())


def test_async_context_manager_drains_on_exit():
    async def main():
        async with AsyncGateway(ServingPolicy(bucket_sizes=(8,),
                                              max_latency=30.0,
                                              adaptive_buckets=False,
                                              shed_policy="deadline")) as gw:
            gw.register("m", _model(), input_shapes=[INPUT])
            waiter = asyncio.ensure_future(
                gw.submit("m", _images(1, seed=5)[0], budget=60.0)
            )
            await asyncio.sleep(0)
        # __aexit__ drained: the queued request completed rather than shed.
        result = await waiter
        assert result.output.shape == (10,)
        assert result.batch_requests == 1 and result.bucket_size == 8

    asyncio.run(main())


def test_gateway_validation_errors():
    async def main():
        gw = AsyncGateway()
        gw.register("m", _model(), input_shapes=[INPUT])
        with pytest.raises(ValueError, match="already registered"):
            gw.register("m", _model())
        with pytest.raises(KeyError, match="no model"):
            await gw.submit("ghost", _images(1)[0])
        with pytest.raises(ValueError, match="image"):
            await gw.submit("m", np.zeros((2, *INPUT), dtype=np.float32))
        await gw.stop()

    asyncio.run(main())


def test_gateway_metrics_split_and_fairness_accounting():
    async def main():
        gw = AsyncGateway(ServingPolicy(bucket_sizes=(1, 2, 4),
                                        max_latency=0.005,
                                        adaptive_buckets=True,
                                        shed_policy="deadline"))
        gw.register("a", _model(), input_shapes=[INPUT], request_cost=1.0)
        gw.register("b", _model(), input_shapes=[INPUT], request_cost=4.0)
        results = await asyncio.gather(
            *[gw.submit("a", im, budget=30.0) for im in _images(4, seed=6)],
            *[gw.submit("b", im, budget=30.0) for im in _images(2, seed=7)],
        )
        await gw.stop()
        assert all(r.latency >= r.queue_wait >= 0.0 for r in results)
        # Each outcome went to its awaiter; the transport filed no copy.
        assert all(gw.status(r.id) is RequestStatus.EVICTED for r in results)
        metrics = gw.metrics()
        assert metrics["a"].completed == 4 and metrics["b"].completed == 2
        for m in metrics.values():
            assert m.exec_seconds_total > 0.0
            assert m.latency_mean >= m.queue_wait_mean
            assert m.bucket_target in (1, 2, 4)
            assert m.deadline_miss_rate <= 1.0

    asyncio.run(main())


def test_awaited_outcomes_are_not_filed():
    # An awaiter holds its outcome from the future and no gateway path reads
    # a filed record back, so the retention table stays empty.
    async def main():
        gw = AsyncGateway(ServingPolicy(bucket_sizes=(1, 2, 4), max_latency=0.005))
        gw.register("m", _model(), input_shapes=[INPUT])
        images = _images(4, seed=8)
        results = await asyncio.gather(*[gw.submit("m", images[i % 4])
                                         for i in range(200)])
        await gw.stop()
        assert len(results) == 200 and len(gw._settled) == 0
        assert gw.metrics()["m"].completed == 200

    asyncio.run(main())


# ---------------------------------------------------------------------------
# Soak (slow-marked): sustained mixed traffic, every future resolves
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_gateway_soak_every_submission_is_accounted_for():
    # Sustained two-model traffic with a mix of generous, tight and blown
    # budgets under a small admission bound: every submission must resolve
    # (result, DeadlineExceeded, RequestShed or QueueFull) — the gateway's
    # nothing-silently-dropped contract under churn.
    async def main():
        gw = AsyncGateway(ServingPolicy(bucket_sizes=(1, 2, 4),
                                        max_latency=0.002, max_pending=16,
                                        adaptive_buckets=True,
                                        shed_policy="deadline"))
        gw.register("small", _model(), input_shapes=[INPUT], request_cost=1.0)
        gw.register("large", _model(), input_shapes=[INPUT], request_cost=2.0)
        rng = np.random.default_rng(8)
        budgets = [None, 30.0, 0.05, -1.0]

        async def client(model, n, seed):
            outcomes = []
            for im in _images(n, seed=seed):
                budget = budgets[rng.integers(len(budgets))]
                try:
                    outcomes.append(await gw.submit(model, im, budget=budget))
                except (DeadlineExceeded, QueueFull, RequestShed) as exc:
                    outcomes.append(exc)
                if rng.random() < 0.3:
                    await asyncio.sleep(0.001)
            return outcomes

        per_client = 25
        outcomes = await asyncio.gather(
            client("small", per_client, 100),
            client("small", per_client, 101),
            client("large", per_client, 102),
            client("large", per_client, 103),
        )
        await gw.stop()
        flat = [o for sub in outcomes for o in sub]
        assert len(flat) == 4 * per_client       # every submission resolved
        completed = sum(1 for o in flat if not isinstance(o, Exception))
        shed = sum(1 for o in flat if isinstance(o, (DeadlineExceeded,
                                                     RequestShed)))
        rejected = sum(1 for o in flat if isinstance(o, QueueFull))
        assert completed + shed + rejected == 4 * per_client
        assert completed > 0                     # traffic actually served
        metrics = gw.metrics()
        assert sum(m.completed for m in metrics.values()) == completed
        assert sum(m.shed_deadline for m in metrics.values()) \
            + sum(m.rejected for m in metrics.values()) == shed + rejected
        # No dangling futures: everything resolved or failed.
        assert not gw._futures

    asyncio.run(main())


# ---------------------------------------------------------------------------
# Metrics: one stats record shared with the sync transports
# ---------------------------------------------------------------------------

def test_gateway_metrics_report_owner_plan_cache_deltas():
    # An unseen shape builds its plans cold on first sight; the gateway
    # reports that through the per-owner plan-cache counters.  Plans are
    # shared by geometry, so the shape is one no other test serves.
    async def main():
        gw = AsyncGateway(ServingPolicy(bucket_sizes=(2,), max_latency=0.005))
        gw.register("m", _model(), input_shapes=[INPUT])
        await asyncio.gather(*[gw.submit("m", im)
                               for im in _images(2, shape=(3, 6, 6), seed=11)])
        await gw.stop()
        return gw.metrics()["m"]

    metrics = asyncio.run(main())
    assert metrics.completed == 2
    assert metrics.plan_builds > 0
    assert metrics.plan_cache_hit_rate < 1.0


def test_gateway_deadline_sheds_are_not_shutdown_sheds():
    async def main():
        gw = AsyncGateway(ServingPolicy(bucket_sizes=(4,), max_latency=0.005,
                                        shed_policy="deadline"))
        gw.register("m", _model(), input_shapes=[INPUT])
        with pytest.raises(DeadlineExceeded):
            await gw.submit("m", _images(1)[0], budget=-1.0)
        await gw.stop()
        return gw.metrics()["m"]

    metrics = asyncio.run(main())
    assert metrics.shed_deadline == 1
    assert metrics.shed == 0


def test_gateway_stop_without_drain_counts_shutdown_sheds():
    async def main():
        gw = AsyncGateway(ServingPolicy(bucket_sizes=(8,), max_latency=30.0))
        gw.register("m", _model(), input_shapes=[INPUT])
        waiters = [asyncio.ensure_future(gw.submit("m", im))
                   for im in _images(3, seed=12)]
        await asyncio.sleep(0)
        await gw.stop(drain=False)
        await asyncio.gather(*waiters, return_exceptions=True)
        return gw.metrics()["m"]

    metrics = asyncio.run(main())
    assert metrics.shed == 3 and metrics.shed_deadline == 0
    assert metrics.completed == 0


# ---------------------------------------------------------------------------
# Shutdown under load: the worker is mid-batch when stop() is called
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("drain", [False, True])
def test_stop_under_load_resolves_every_future_once(drain):
    # Every batch's injected slow_batch delay goes through this sleep, which
    # holds the worker inside its first batch until a timer releases it
    # shortly after stop() was called.
    started, release = threading.Event(), threading.Event()

    def hold(seconds):
        started.set()
        assert release.wait(10)

    async def main():
        gw = AsyncGateway(ServingPolicy(bucket_sizes=(4,), max_latency=30.0,
                                        adaptive_buckets=False), sleep=hold)
        gw.register("m", _model(), input_shapes=[INPUT])
        inj = FaultInjector([FaultSpec(site="slow_batch", rate=1.0, delay=1.0)])
        with use_faults(inj):
            waiters = [asyncio.ensure_future(gw.submit("m", im))
                       for im in _images(4, seed=40)]
            for _ in range(10_000):          # the full bucket is executing
                if started.is_set():
                    break
                await asyncio.sleep(0.001)
            assert started.is_set()
            waiters += [asyncio.ensure_future(gw.submit("m", im))
                        for im in _images(6, seed=41)]
            await asyncio.sleep(0)           # all six queued behind it
            timer = threading.Timer(0.05, release.set)
            timer.start()
            await gw.stop(drain=drain)
            # stop() returned only after the in-flight batch finished:
            # every request has settled, and no future is left registered.
            m = gw.metrics()["m"]
            assert m.completed + m.shed + m.failed == 10
            assert not gw._futures
            await gw.stop(drain=drain)
            timer.join(10)
            assert not timer.is_alive()
        outcomes = await asyncio.wait_for(
            asyncio.gather(*waiters, return_exceptions=True), timeout=30)
        return gw, outcomes

    gw, outcomes = asyncio.run(main())
    assert len(outcomes) == 10
    assert all(isinstance(o, (RequestResult, RequestShed, RequestFailed))
               for o in outcomes)
    completed = sum(isinstance(o, RequestResult) for o in outcomes)
    shed = sum(isinstance(o, RequestShed) for o in outcomes)
    m = gw.metrics()["m"]
    assert (m.completed, m.shed, m.failed) == (completed, shed, 0)
    if drain:
        assert completed == 10
    else:
        # The in-flight batch finished; the two requests short of a full
        # bucket were never due, so they (at least) were shed.
        assert completed >= 4 and shed >= 2


def test_gateway_outlives_a_loop_closed_with_a_request_in_flight():
    # The first loop closes while its request is still executing; the
    # worker must survive settling it there and serve the next loop.
    gw = AsyncGateway(ServingPolicy(bucket_sizes=(1,), max_latency=0.005))
    gw.register("m", _model(), input_shapes=[INPUT])
    image = _images(1, seed=50)[0]

    async def leave_in_flight():
        asyncio.ensure_future(gw.submit("m", image))
        await asyncio.sleep(0)           # admitted; the batch is due

    async def serve_again():
        result = await asyncio.wait_for(gw.submit("m", image), timeout=30)
        await gw.stop()
        return result

    asyncio.run(leave_in_flight())
    assert asyncio.run(serve_again()).output.shape == (10,)
    assert gw.metrics()["m"].completed == 2
