"""Serving front-end: shape-bucketed batching correctness + metrics.

The bitwise-equality tests exploit the server's core numerical property:
padding every batch to a fixed bucket size makes the GEMM shapes (and hence
BLAS blocking and summation order) identical no matter how many real
requests share the batch, so a request's output is bit-identical whether it
rode alone or fully coalesced.
"""
import threading
import time

import numpy as np
import pytest

from repro.backend import backend_override
from repro.models import build_model
from repro.serve import BucketPolicy, Server, ServingPolicy
from repro.serve import server as server_module
from repro.tensor import Tensor, no_grad
from repro.utils import seed_all

from tests.helpers import record_kernel_calls

INPUT = (3, 16, 16)


@pytest.fixture(autouse=True)
def _seed():
    seed_all(33)


def _model(impl="dsxplore"):
    return build_model("mobilenet", scheme="scc", width_mult=0.25,
                       impl=impl, rng=np.random.default_rng(2))


def _images(n, shape=INPUT, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape).astype(np.float32) for _ in range(n)]


# ---------------------------------------------------------------------------
# Correctness: bucketed batches == per-request inference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("impl", ["channel_stack", "conv_stack", "dsxplore"])
@pytest.mark.parametrize("backend", ["numpy", "reference"])
def test_bucketed_outputs_bitwise_equal_per_request(impl, backend):
    model = _model(impl=impl)
    images = _images(4)
    # Without a worker thread the server runs each batch inline, on this
    # thread, so the override reaches every kernel.
    with record_kernel_calls() as calls, backend_override(backend):
        server = Server(model, input_shapes=[INPUT],
                        config=ServingPolicy(bucket_sizes=(4,), max_latency=1.0))

        # Coalesced: all four requests share one bucket.
        ids = [server.submit(im) for im in images]
        batched = [server.result(i).output for i in ids]

        # Per-request: each request rides its own (padded) bucket.
        solo = []
        for im in images:
            rid = server.submit(im)
            server.flush()
            solo.append(server.result(rid).output)
    assert {c.backend for c in calls} == {backend}

    for a, b in zip(batched, solo):
        np.testing.assert_array_equal(a, b)


def test_partial_bucket_padding_does_not_leak_between_requests():
    model = _model()
    server = Server(model, input_shapes=[INPUT],
                    config=ServingPolicy(bucket_sizes=(4,), max_latency=1.0))
    images = _images(3, seed=4)
    # Same three requests next to different batch-mates: identical outputs.
    first_ids = [server.submit(im) for im in images]
    server.flush()
    first = [server.result(i).output for i in first_ids]

    decoys = _images(1, seed=99)
    second_ids = [server.submit(im) for im in images + decoys]
    server.flush()
    second = [server.result(i).output for i in second_ids[:3]]
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)


def test_server_outputs_match_naive_unbatched_inference():
    model = _model()
    server = Server(model, input_shapes=[INPUT],
                    config=ServingPolicy(bucket_sizes=(1, 2, 4), max_latency=1.0))
    images = _images(6, seed=7)
    ids = [server.submit(im) for im in images]
    server.flush()
    with no_grad():
        for rid, im in zip(ids, images):
            naive = model(Tensor(im[None])).data[0]
            np.testing.assert_allclose(server.result(rid).output, naive,
                                       rtol=1e-5, atol=1e-5)


# ---------------------------------------------------------------------------
# Batching policy: bucket sizes + max-latency flush
# ---------------------------------------------------------------------------

def test_full_bucket_flushes_immediately_partial_waits_for_deadline():
    clock = [0.0]
    model = _model()
    server = Server(model, input_shapes=[INPUT],
                    config=ServingPolicy(bucket_sizes=(2, 4), max_latency=0.5),
                    clock=lambda: clock[0])
    images = _images(6, seed=1)

    # Four submissions hit the max bucket: flushed inline, no poll needed.
    ids = [server.submit(im) for im in images[:4]]
    assert all(server.result(i) is not None for i in ids)
    assert server.result(ids[0]).bucket_size == 4
    assert server.result(ids[0]).batch_requests == 4

    # One pending request: stays queued until the deadline passes.
    rid = server.submit(images[4])
    assert server.poll() == 0 and server.result(rid) is None
    clock[0] = 0.6
    assert server.poll() == 1
    result = server.result(rid)
    assert result is not None
    assert result.bucket_size == 2  # smallest configured bucket that fits
    assert result.latency == pytest.approx(0.6)


def test_flush_drains_queue_larger_than_max_bucket():
    # Regression: flush()/stop() used to run one max-size batch and strand
    # the sub-bucket remainder when a burst outran the worker thread.
    model = _model()
    server = Server(model, input_shapes=[INPUT],
                    config=ServingPolicy(bucket_sizes=(1, 2, 4), max_latency=1.0))
    images = _images(10, seed=13)
    with server._lock:  # simulate a threaded-mode burst the worker missed
        ids = [server.core.submit(server.name, INPUT, 0.0, payload=image).request.id
               for image in images]
    assert server.flush() == 3  # 4 + 4 + 2
    assert all(server.result(rid) is not None for rid in ids)
    assert server.metrics().completed == 10


def test_unread_result_retention_is_bounded(monkeypatch):
    monkeypatch.setattr(server_module, "RESULT_CAPACITY", 4)
    monkeypatch.setattr(server_module, "METRICS_WINDOW", 6)
    model = _model()
    server = Server(model, input_shapes=[INPUT],
                    config=ServingPolicy(bucket_sizes=(2,), max_latency=1.0))
    ids = [server.submit(im) for im in _images(10, seed=14)]
    server.flush()
    # Oldest unread results are evicted; recent ones and the aggregate
    # counters survive.
    assert server.result(ids[0]) is None
    assert server.result(ids[-1]) is not None
    metrics = server.metrics()
    assert metrics.completed == 10
    assert metrics.latency_p50 > 0


def test_waited_results_survive_capacity_eviction(monkeypatch):
    monkeypatch.setattr(server_module, "RESULT_CAPACITY", 4)
    # A result someone is blocked in wait_result() on must not be evicted
    # by RESULT_CAPACITY — otherwise the waiter times out on a request
    # that actually completed.
    from tests.helpers import wait_for

    model = _model()
    server = Server(model, input_shapes=[INPUT],
                    config=ServingPolicy(bucket_sizes=(8,), max_latency=5.0))
    ids = [server.submit(im) for im in _images(7, seed=20)]  # queued, < bucket
    got = {}
    waiter = threading.Thread(
        target=lambda: got.update(result=server.wait_result(ids[0], timeout=10.0))
    )
    waiter.start()

    def _waiter_registered():
        with server._lock:
            return ids[0] in server._waiting

    wait_for(_waiter_registered)
    server.flush()                         # publishes 7 results, capacity 4
    waiter.join()
    assert got["result"].id == ids[0]      # waited result survived eviction
    assert server.result(ids[1]) is None   # an unwaited old result was evicted
    assert server.result(ids[-1]) is not None


def _wait_in_thread(server, rid):
    """Block a thread in ``wait_result(rid)`` and return, once the waiter
    is registered, a function that joins it and returns what the wait
    returned or raised."""
    from tests.helpers import wait_for

    caught = []

    def wait():
        try:
            caught.append(server.wait_result(rid, timeout=10.0))
        except Exception as exc:  # the outcome under test
            caught.append(exc)

    waiter = threading.Thread(target=wait)
    waiter.start()

    def _waiter_registered():
        with server._lock:
            return rid in server._waiting

    wait_for(_waiter_registered)

    def outcome():
        waiter.join(timeout=15.0)
        assert not waiter.is_alive()
        return caught[0]

    return outcome


def test_waited_failure_survives_capacity_eviction(monkeypatch):
    # The eviction exemption covers every outcome: a waiter blocked on a
    # request whose batch then fails gets its RequestFailed, not a
    # ResultTimeout on an evicted record.
    from repro.faults import FaultInjector, FaultSpec, use_faults
    from repro.serve import RequestFailed, RequestStatus

    monkeypatch.setattr(server_module, "RESULT_CAPACITY", 2)
    server = Server(_model(), input_shapes=[INPUT],
                    config=ServingPolicy(bucket_sizes=(8,), max_latency=5.0,
                                         isolate_failures=False))
    ids = [server.submit(im) for im in _images(5, seed=21)]  # queued, < bucket
    outcome = _wait_in_thread(server, ids[0])
    with use_faults(FaultInjector([FaultSpec(site="kernel", rate=1.0)])):
        server.flush()                     # 5 failures, capacity 2
    failed = outcome()
    assert isinstance(failed, RequestFailed)
    assert failed.request_id == ids[0]
    assert server.status(ids[0]) == RequestStatus.FAILED
    assert server.status(ids[1]) == RequestStatus.EVICTED


def test_waited_shed_survives_capacity_eviction(monkeypatch):
    from repro.serve import RequestShed, RequestStatus

    monkeypatch.setattr(server_module, "RESULT_CAPACITY", 2)
    server = Server(_model(), input_shapes=[INPUT],
                    config=ServingPolicy(bucket_sizes=(8,), max_latency=5.0))
    ids = [server.submit(im) for im in _images(5, seed=22)]  # queued, < bucket
    outcome = _wait_in_thread(server, ids[0])
    server.stop(drain=False)               # 5 sheds, capacity 2
    assert type(outcome()) is RequestShed
    assert server.status(ids[0]) == RequestStatus.SHED
    assert server.status(ids[1]) == RequestStatus.EVICTED


def test_waiter_keeps_exemption_when_another_waiter_gives_up(monkeypatch):
    # Two waiters on one id: the one that times out must not take the
    # other's eviction exemption with it.
    from repro.serve import ResultTimeout

    monkeypatch.setattr(server_module, "RESULT_CAPACITY", 2)
    server = Server(_model(), input_shapes=[INPUT],
                    config=ServingPolicy(bucket_sizes=(8,), max_latency=5.0))
    ids = [server.submit(im) for im in _images(5, seed=23)]  # queued, < bucket
    outcome = _wait_in_thread(server, ids[0])
    with pytest.raises(ResultTimeout):
        server.wait_result(ids[0], timeout=0.05)
    server.flush()                         # 5 results, capacity 2
    assert outcome().id == ids[0]


def test_wait_result_on_an_evicted_id_raises_at_once(monkeypatch):
    # Eviction is terminal and known at entry: the waiter must not wait out
    # its timeout first.  Nor must one on an id that was never issued.
    from repro.serve import RequestStatus, ResultTimeout

    monkeypatch.setattr(server_module, "RESULT_CAPACITY", 2)
    server = Server(_model(), input_shapes=[INPUT],
                    config=ServingPolicy(bucket_sizes=(4,), max_latency=5.0))
    ids = [server.submit(im) for im in _images(4, seed=24)]  # one bucket, inline
    assert server.status(ids[0]) == RequestStatus.EVICTED
    started = time.monotonic()
    with pytest.raises(ResultTimeout) as exc:
        server.wait_result(ids[0], timeout=2.0)
    assert exc.value.status == RequestStatus.EVICTED
    with pytest.raises(KeyError, match="never issued"):
        server.wait_result(ids[-1] + 1, timeout=2.0)
    assert time.monotonic() - started < 1.0
    assert server.wait_result(ids[-1], timeout=2.0).id == ids[-1]


def test_requests_of_unseen_shape_build_cold_plans_but_complete():
    model = _model()
    server = Server(model, input_shapes=[INPUT],
                    config=ServingPolicy(bucket_sizes=(2,), max_latency=1.0))
    server.reset_metrics()
    other = (3, 8, 8)
    ids = [server.submit(im) for im in _images(2, shape=other, seed=3)]
    server.flush()
    assert all(server.result(i) is not None for i in ids)
    metrics = server.metrics()
    assert metrics.completed == 2
    assert metrics.plan_builds > 0  # the cold path is visible in metrics


def test_metrics_warm_serving_window():
    model = _model()
    server = Server(model, input_shapes=[INPUT],
                    config=ServingPolicy(bucket_sizes=(1, 2, 4), max_latency=1.0))
    # Warmup traffic, then measure a clean window.
    for im in _images(4, seed=8):
        server.submit(im)
    server.flush()
    server.reset_metrics()

    for im in _images(8, seed=9):
        server.submit(im)
    server.flush()
    metrics = server.metrics()
    assert metrics.completed == 8
    assert metrics.batches == 2
    assert metrics.plan_builds == 0
    assert metrics.plan_cache_hit_rate == 1.0
    assert metrics.throughput > 0
    assert metrics.latency_p95 >= metrics.latency_p50 > 0
    assert metrics.mean_batch_occupancy == 4.0
    assert metrics.mean_bucket_fill == 1.0
    assert metrics.as_dict()["completed"] == 8


def test_server_config_validation():
    with pytest.raises(ValueError, match="bucket_sizes"):
        ServingPolicy(bucket_sizes=())
    with pytest.raises(ValueError, match="max_latency"):
        ServingPolicy(max_latency=0)
    config = ServingPolicy(bucket_sizes=(8, 2, 2, 4))
    assert config.bucket_sizes == (2, 4, 8)
    buckets = BucketPolicy(config.bucket_sizes)
    assert buckets.fit_bucket(1) == 2 and buckets.fit_bucket(5) == 8
    assert buckets.fit_bucket(64) == 8
    model = _model()
    server = Server(model, input_shapes=[INPUT])
    with pytest.raises(ValueError, match="image"):
        server.submit(np.zeros((2, *INPUT), dtype=np.float32))


# ---------------------------------------------------------------------------
# Shutdown semantics: no submitted request is silently dropped
# ---------------------------------------------------------------------------

def test_stop_drains_requests_racing_shutdown():
    # Requests submitted concurrently with stop() must all complete: stop
    # claims the worker under the lock before its final drain, so a racing
    # submit either lands in the drain or applies sync-mode semantics itself.
    from repro.serve import ServingMetrics

    model = _model()
    server = Server(model, input_shapes=[INPUT],
                    config=ServingPolicy(bucket_sizes=(1, 2, 4), max_latency=0.005))
    server.start()
    ids = []
    lock = threading.Lock()
    stop_now = threading.Event()

    def client(seed):
        for i, im in enumerate(_images(6, seed=seed)):
            rid = server.submit(im)
            with lock:
                ids.append(rid)
            if i == 2:
                stop_now.set()  # let stop() race the middle of the stream

    clients = [threading.Thread(target=client, args=(s,)) for s in range(3)]
    for t in clients:
        t.start()
    stop_now.wait(5.0)
    server.stop()             # drain=True: joins worker, then flushes
    for t in clients:
        t.join()
    server.flush()            # requests submitted after stop() returned
    assert len(ids) == 18
    assert all(server.result(rid) is not None for rid in ids)
    metrics = server.metrics()
    assert isinstance(metrics, ServingMetrics)
    assert metrics.completed == 18 and metrics.shed == 0


def test_stop_without_drain_sheds_pending_and_reports_them():
    from repro.serve import RequestShed

    model = _model()
    server = Server(model, input_shapes=[INPUT],
                    config=ServingPolicy(bucket_sizes=(8,), max_latency=5.0))
    executed = server.submit(_images(1, seed=30)[0])
    server.flush()
    pending = [server.submit(im) for im in _images(3, seed=31)]
    server.stop(drain=False)
    # Executed results survive; pending ones are shed, not silently dropped.
    assert server.result(executed) is not None
    for rid in pending:
        assert server.result(rid) is None
        assert server.was_shed(rid)
    with pytest.raises(RequestShed, match="shed"):
        server.wait_result(pending[0], timeout=1.0)
    assert server.pending_count() == 0
    assert server.metrics().shed == 3
    # stop() is idempotent and safe without start().
    server.stop()


def test_shed_id_retention_is_bounded(monkeypatch):
    monkeypatch.setattr(server_module, "RESULT_CAPACITY", 4)
    # Like unread results, shed-id bookkeeping must not grow forever on a
    # long-lived server that repeatedly stops without draining.
    model = _model()
    server = Server(model, input_shapes=[INPUT],
                    config=ServingPolicy(bucket_sizes=(8,), max_latency=5.0))
    first_batch = [server.submit(im) for im in _images(3, seed=34)]
    server.stop(drain=False)
    second_batch = [server.submit(im) for im in _images(4, seed=35)]
    server.stop(drain=False)
    assert len(server._settled) <= 4
    assert all(server.was_shed(rid) for rid in second_batch)  # newest kept
    assert not server.was_shed(first_batch[0])                # oldest trimmed
    assert server.metrics().shed == 7                         # counter exact


def test_shed_wakes_blocked_waiters():
    from repro.serve import RequestShed
    from tests.helpers import wait_for

    model = _model()
    server = Server(model, input_shapes=[INPUT],
                    config=ServingPolicy(bucket_sizes=(8,), max_latency=5.0))
    rid = server.submit(_images(1, seed=32)[0])
    caught = []
    waiter = threading.Thread(
        target=lambda: caught.append(
            pytest.raises(RequestShed, server.wait_result, rid, timeout=10.0)
        )
    )
    waiter.start()

    def _waiter_registered():
        with server._lock:
            return rid in server._waiting

    wait_for(_waiter_registered)
    server.stop(drain=False)
    waiter.join(5.0)
    assert not waiter.is_alive() and len(caught) == 1


def test_admission_control_bounds_server_queue():
    from repro.serve import QueueFull

    model = _model()
    server = Server(model, input_shapes=[INPUT],
                    config=ServingPolicy(bucket_sizes=(8,), max_latency=5.0,
                                        max_pending=2))
    images = _images(4, seed=33)
    accepted = [server.submit(im) for im in images[:2]]
    with pytest.raises(QueueFull, match="max_pending"):
        server.submit(images[2])
    server.flush()            # draining frees capacity again
    accepted.append(server.submit(images[3]))
    server.flush()
    assert all(server.result(rid) is not None for rid in accepted)
    metrics = server.metrics()
    assert metrics.rejected == 1 and metrics.completed == 3
    with pytest.raises(ValueError, match="max_pending"):
        ServingPolicy(max_pending=0)


# ---------------------------------------------------------------------------
# Request lifecycle: status(), deadlines, queue-wait split, adaptive buckets
# ---------------------------------------------------------------------------

def test_status_disambiguates_result_none(monkeypatch):
    monkeypatch.setattr(server_module, "RESULT_CAPACITY", 4)
    # result() is None both for still-pending and for evicted-unread
    # requests; status() tells them apart (plus DONE and SHED).
    from repro.serve import RequestStatus

    model = _model()
    server = Server(model, input_shapes=[INPUT],
                    config=ServingPolicy(bucket_sizes=(2,), max_latency=5.0))
    # Each full pair flushes inline: 8 complete, the 9th stays queued, and
    # RESULT_CAPACITY=4 evicts the 4 oldest unread results.
    ids = [server.submit(im) for im in _images(9, seed=40)]
    assert server.result(ids[0]) is None
    assert server.status(ids[0]) == RequestStatus.EVICTED
    assert server.status(ids[-2]) == RequestStatus.DONE
    assert server.status(ids[-1]) == RequestStatus.PENDING  # odd one still queued
    server.stop(drain=False)
    assert server.status(ids[-1]) == RequestStatus.SHED
    with pytest.raises(KeyError, match="never issued"):
        server.status(10_000)


def test_deadline_shed_raises_deadline_exceeded():
    # Under shed_policy="deadline", a queued request whose absolute deadline
    # passes is dropped at the next poll — viable queue-mates survive — and
    # its waiter gets DeadlineExceeded (a RequestShed subclass).
    from repro.serve import DeadlineExceeded, RequestShed, RequestStatus

    clock = [0.0]
    model = _model()
    server = Server(model, input_shapes=[INPUT],
                    config=ServingPolicy(bucket_sizes=(4,), max_latency=10.0,
                                        shed_policy="deadline"),
                    clock=lambda: clock[0])
    images = _images(2, seed=41)
    blown = server.submit(images[0], deadline=1.0)
    viable = server.submit(images[1], deadline=100.0)
    clock[0] = 2.0
    assert server.poll() == 0          # nothing due yet; the blown one shed
    assert server.was_shed(blown)
    assert server.status(blown) == RequestStatus.SHED
    with pytest.raises(DeadlineExceeded, match="deadline"):
        server.wait_result(blown, timeout=0.1)
    assert isinstance(DeadlineExceeded("x"), RequestShed)
    clock[0] = 12.0                    # viable request flushes on max_latency
    assert server.poll() == 1
    result = server.result(viable)
    assert result is not None
    metrics = server.metrics()
    assert metrics.shed_deadline == 1
    assert metrics.completed == 1
    # The survivor completed within its budget: no deadline miss.
    assert metrics.deadline_misses == 0 and metrics.deadline_miss_rate == 0.0


def test_completion_exactly_at_deadline_is_not_a_miss():
    # The SLO boundary is inclusive: done == deadline meets it.  A miss
    # requires strictly-later completion.
    clock = [0.0]
    model = _model()
    server = Server(model, input_shapes=[INPUT],
                    config=ServingPolicy(bucket_sizes=(1, 2), max_latency=10.0),
                    clock=lambda: clock[0])
    rid = server.submit(_images(1, seed=42)[0], deadline=0.0)
    server.flush()                     # executes at t=0.0: done == deadline
    assert server.result(rid) is not None
    metrics = server.metrics()
    assert metrics.deadline_misses == 0 and metrics.deadline_miss_rate == 0.0

    late = server.submit(_images(1, seed=43)[0], deadline=1.0)
    clock[0] = 5.0
    server.flush()
    assert server.result(late) is not None    # no shed policy: still executed
    metrics = server.metrics()
    assert metrics.deadline_misses == 1 and metrics.deadline_miss_rate == 0.5


def test_shed_then_wait_result_race():
    # wait_result() registered *after* the shed must still raise, not block
    # to timeout: shed bookkeeping outlives the queue entry.
    from repro.serve import DeadlineExceeded

    clock = [0.0]
    model = _model()
    server = Server(model, input_shapes=[INPUT],
                    config=ServingPolicy(bucket_sizes=(4,), max_latency=10.0,
                                        shed_policy="deadline"),
                    clock=lambda: clock[0])
    rid = server.submit(_images(1, seed=44)[0], deadline=0.5)
    clock[0] = 1.0
    server.poll()                      # sheds before any waiter exists
    with pytest.raises(DeadlineExceeded):
        server.wait_result(rid, timeout=0.1)


def test_metrics_split_queue_wait_vs_exec():
    # latency = queue_wait (submit -> batch start, on the injected clock)
    # + execution; with a virtual clock the wait component is exact.
    clock = [0.0]
    model = _model()
    server = Server(model, input_shapes=[INPUT],
                    config=ServingPolicy(bucket_sizes=(2,), max_latency=1.0),
                    clock=lambda: clock[0])
    rid = server.submit(_images(1, seed=45)[0])
    clock[0] = 2.0
    server.poll()
    result = server.result(rid)
    assert result.queue_wait == pytest.approx(2.0)
    assert result.latency >= result.queue_wait
    metrics = server.metrics()
    assert metrics.queue_wait_mean == pytest.approx(2.0)
    assert metrics.queue_wait_p95 == pytest.approx(2.0)
    assert metrics.exec_mean >= 0.0
    assert metrics.bucket_target == 2  # fixed mode reports the max bucket


def test_adaptive_server_shrinks_bucket_under_light_load():
    # adaptive_buckets=True: sparse arrivals target the smallest bucket, so
    # a lone request flushes as soon as one batch-mate window passes — and
    # outputs stay bitwise-equal to the fixed-bucket server (same
    # fit_bucket padding at execution).
    clock = [0.0]
    model = _model()
    server = Server(model, input_shapes=[INPUT],
                    config=ServingPolicy(bucket_sizes=(1, 4), max_latency=1.0,
                                        adaptive_buckets=True),
                    clock=lambda: clock[0])
    images = _images(3, seed=46)
    # Sparse arrivals: EWMA gap 5s >> max_latency -> target bucket 1, so
    # every submit triggers an immediate inline flush.
    outs = []
    for im in images:
        rid = server.submit(im)
        outs.append(server.result(rid))
        clock[0] += 5.0
    assert all(r is not None for r in outs)
    assert server.metrics().bucket_target == 1
    assert all(r.bucket_size == 1 for r in outs)

    fixed = Server(_model(), input_shapes=[INPUT],
                   config=ServingPolicy(bucket_sizes=(1, 4), max_latency=1.0))
    for im, adaptive_result in zip(images, outs):
        rid = fixed.submit(im)
        fixed.flush()
        np.testing.assert_array_equal(fixed.result(rid).output,
                                      adaptive_result.output)


def test_server_config_rejects_unknown_shed_policy():
    with pytest.raises(ValueError, match="shed_policy"):
        ServingPolicy(shed_policy="oldest")


# ---------------------------------------------------------------------------
# Threaded mode: concurrent clients on the single-flight cache
# ---------------------------------------------------------------------------

def test_threaded_server_serves_concurrent_clients():
    from repro.backend import plan_cache_stats

    model = _model()
    server = Server(model, input_shapes=[INPUT],
                    config=ServingPolicy(bucket_sizes=(1, 2, 4), max_latency=0.02))
    base = plan_cache_stats()
    server.start()
    try:
        outputs = {}
        lock = threading.Lock()

        def client(seed):
            for i, im in enumerate(_images(5, seed=seed)):
                rid = server.submit(im)
                result = server.wait_result(rid, timeout=30.0)
                with lock:
                    outputs[(seed, i)] = result
        clients = [threading.Thread(target=client, args=(s,)) for s in range(3)]
        for t in clients:
            t.start()
        for t in clients:
            t.join()
    finally:
        server.stop()

    assert len(outputs) == 15
    assert all(r.output.shape == (10,) for r in outputs.values())
    # Warm plans + single-flight: the serving window built nothing.
    after = plan_cache_stats()
    assert after["builds"] == base["builds"]
    assert after["misses"] == base["misses"]
    assert server.metrics().completed == 15
