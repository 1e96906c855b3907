"""Fault-injection plane + the serving stack's tolerance machinery.

The contract under test (ISSUE 9): faults are deterministic pure functions
of (seed, site, key, attempt); batch failure isolation bisects a raising
batch so only poisoned requests fail — survivors bitwise-identical to a
clean run; transient faults are retried with deterministic backoff (zero
real sleeps: every delay goes through an injected sleep); per-model circuit
breakers open on windowed error rate, shed with ModelUnavailable, half-open
probe and close; repeated kernel faults demote the affected workload down
the backend chain; and the chaos soak sustains >= 99% goodput for
non-poisoned requests with zero silent drops.
"""
import asyncio
from collections import Counter

import numpy as np
import pytest

from repro.backend import REGISTRY, backend_override
from repro.faults import (
    FaultInjector,
    FaultSpec,
    InjectedFault,
    PoisonedRequest,
    active_faults,
    use_faults,
)
from repro.models import build_model, build_serving_model
from repro.serve import (
    AsyncGateway,
    CircuitBreaker,
    ModelExecutor,
    ModelUnavailable,
    RequestFailed,
    RequestStatus,
    ResultTimeout,
    RetryPolicy,
    Router,
    Server,
    ServingPolicy,
)
from repro.tensor import Tensor, no_grad
from repro.utils import seed_all
from tests.helpers import record_kernel_calls

INPUT = (3, 16, 16)


@pytest.fixture(autouse=True)
def _seed_and_clean():
    seed_all(33)
    yield
    assert active_faults() is None, "a test leaked an installed fault injector"


def _model():
    return build_model("mobilenet", scheme="scc", width_mult=0.25,
                       rng=np.random.default_rng(2))


def _images(n, shape=INPUT, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape).astype(np.float32) for _ in range(n)]


def _virtual_time():
    """(clock, sleep) pair over one virtual timeline — zero real sleeping."""
    t = [0.0]
    return (lambda: t[0]), (lambda dt: t.__setitem__(0, t[0] + dt)), t


# ---------------------------------------------------------------------------
# The fault plane itself: deterministic, budgeted, scoped
# ---------------------------------------------------------------------------

def test_fault_decisions_are_deterministic_and_attempt_sensitive():
    spec = FaultSpec(site="kernel", rate=0.3)
    draws = []
    for _ in range(2):
        inj = FaultInjector([spec], seed=7)
        fired = []
        for key in range(200):
            try:
                inj.check("kernel", key=(key,), attempt=0)
                fired.append(False)
            except InjectedFault:
                fired.append(True)
        draws.append(fired)
    # Same seed, same keys -> the identical fault schedule, independent of
    # any clock or ordering state.
    assert draws[0] == draws[1]
    rate = sum(draws[0]) / len(draws[0])
    assert 0.15 < rate < 0.45  # ~0.3 by construction
    # A retry is a fresh opportunity: some keys that fired at attempt 0
    # pass at attempt 1 (that is what makes transient faults retryable).
    recovered = 0
    inj = FaultInjector([spec], seed=7)
    for key in (k for k, f in enumerate(draws[0]) if f):
        try:
            inj.check("kernel", key=(key,), attempt=1)
        except InjectedFault:
            continue
        recovered += 1
    assert recovered > 0


def test_max_fires_budget_scripts_a_finite_outage():
    inj = FaultInjector([FaultSpec(site="kernel", rate=1.0, max_fires=3)])
    fired = 0
    for key in range(10):
        try:
            inj.check("kernel", key=(key,))
        except InjectedFault:
            fired += 1
    assert fired == 3
    assert inj.stats()["site_fires"]["kernel"] == 3


def test_spec_filters_by_model_and_backend():
    spec = FaultSpec(site="kernel", rate=1.0, models=("broken",),
                     backends=("numpy",))
    inj = FaultInjector([spec])
    inj.check("kernel", model="healthy", backend="numpy")   # wrong model
    inj.check("kernel", model="broken", backend="reference")  # wrong backend
    with pytest.raises(InjectedFault):
        inj.check("kernel", model="broken", backend="numpy")


def test_poisoned_requests_fail_every_attempt():
    inj = FaultInjector(poison_ids=[("m", 7)])
    assert inj.poisoned_subset([5, 6, 7, 8], model="m") == [7]
    assert inj.poisoned_subset([5, 6, 7, 8], model="other") == []
    for attempt in range(3):  # deterministic: no retry can ever succeed
        with pytest.raises(PoisonedRequest) as exc_info:
            inj.kernel_fault([6, 7], model="m", attempt=attempt)
        assert exc_info.value.ids == (7,)


def test_use_faults_scopes_the_active_injector():
    assert active_faults() is None
    inj = FaultInjector()
    with use_faults(inj):
        assert active_faults() is inj
    assert active_faults() is None


# ---------------------------------------------------------------------------
# RetryPolicy + CircuitBreaker (pure policies)
# ---------------------------------------------------------------------------

def test_retry_policy_backoff_grows_and_jitter_is_deterministic():
    rp = RetryPolicy(max_attempts=4, base_delay=0.01, multiplier=2.0,
                     max_delay=0.05, jitter=0.5, seed=3)
    assert rp.should_retry(0) and rp.should_retry(2) and not rp.should_retry(3)
    d = [rp.delay(a, token=9) for a in range(4)]
    assert d == [rp.delay(a, token=9) for a in range(4)]  # deterministic
    assert d[0] < d[1] < d[2]                             # exponential
    assert all(dd <= 0.05 * 1.5 for dd in d)              # capped (+jitter)
    assert rp.delay(0, token=1) != rp.delay(0, token=2)   # de-synchronised


def test_circuit_breaker_lifecycle():
    cb = CircuitBreaker(window=8, threshold=0.5, min_samples=4, cooldown=1.0)
    assert cb.state == cb.CLOSED
    for t in range(4):
        assert cb.allow(float(t))
        cb.record(False, float(t))
    assert cb.state == cb.OPEN and cb.opens == 1
    assert not cb.allow(3.5)          # still cooling down
    assert cb.rejected == 1
    assert cb.allow(10.0)             # cooldown passed -> half-open probe
    assert cb.state == cb.HALF_OPEN
    assert not cb.allow(10.0)         # probe quota is 1
    cb.record(True, 10.5)             # probe succeeded
    assert cb.state == cb.CLOSED and cb.closes == 1
    trans = [(frm, to) for _, frm, to in cb.transitions]
    assert trans == [("closed", "open"), ("open", "half_open"),
                     ("half_open", "closed")]
    snap = cb.snapshot()
    assert snap["state"] == "closed" and len(snap["transitions"]) == 3


def test_circuit_breaker_failed_probe_reopens():
    cb = CircuitBreaker(window=4, threshold=0.5, min_samples=2, cooldown=1.0)
    cb.record(False, 0.0)
    cb.record(False, 0.0)
    assert cb.state == cb.OPEN
    assert cb.allow(2.0)
    cb.record(False, 2.0)             # probe failed: cooldown restarts
    assert cb.state == cb.OPEN and cb.opens == 2
    assert not cb.allow(2.5)
    assert cb.allow(3.5)


# ---------------------------------------------------------------------------
# Batch failure isolation (the tentpole's core guarantee)
# ---------------------------------------------------------------------------

def test_isolation_fails_only_poisoned_requests_bitwise_survivors():
    images = _images(8, seed=4)
    clean = ModelExecutor(_model(), input_shapes=[INPUT], bucket_sizes=(8,))
    clean_rows, errors, _, _ = clean.run_resilient(images, 8)
    assert not errors

    executor = ModelExecutor(_model(), input_shapes=[INPUT], bucket_sizes=(8,))
    inj = FaultInjector(poison_ids=[2, 5])
    with use_faults(inj):
        rows, errors, stats, _ = executor.run_resilient(
            images, 8, request_ids=list(range(8))
        )
    assert sorted(errors) == [2, 5]
    for idx, err in errors.items():
        assert isinstance(err, RequestFailed)
        assert err.request_id == idx
        assert isinstance(err.__cause__, PoisonedRequest)
    assert stats.splits > 0
    # Every survivor re-padded to the same bucket: bitwise equal to the
    # fault-free run even though the grouping was bisected apart.
    for i in range(8):
        if i in errors:
            assert rows[i] is None
        else:
            np.testing.assert_array_equal(rows[i], clean_rows[i])


def test_transient_fault_retried_with_virtual_sleep():
    executor = ModelExecutor(_model(), input_shapes=[INPUT], bucket_sizes=(4,))
    clock, sleep, t = _virtual_time()
    inj = FaultInjector([FaultSpec(site="kernel", rate=1.0, max_fires=1)])
    retry = RetryPolicy(max_attempts=3, base_delay=0.01, seed=2)
    with use_faults(inj):
        rows, errors, stats, _ = executor.run_resilient(
            _images(4, seed=1), 4, clock=clock,
            request_ids=[0, 1, 2, 3], retry=retry, sleep=sleep,
        )
    assert not errors and all(r is not None for r in rows)
    assert stats.retries == 1 and stats.faults == 1 and stats.attempts == 2
    assert t[0] > 0.0  # the backoff elapsed on the virtual timeline only


def test_plan_build_fault_is_retried():
    executor = ModelExecutor(_model(), input_shapes=[INPUT], bucket_sizes=(2,))
    clock, sleep, _ = _virtual_time()
    inj = FaultInjector([FaultSpec(site="plan_build", rate=1.0, max_fires=1)])
    with use_faults(inj):
        rows, errors, stats, _ = executor.run_resilient(
            _images(2, seed=2), 2, clock=clock,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0), sleep=sleep,
        )
    assert not errors and stats.retries == 1


def test_slow_batch_fault_delays_on_the_injected_sleep():
    executor = ModelExecutor(_model(), input_shapes=[INPUT], bucket_sizes=(2,))
    clock, sleep, t = _virtual_time()
    inj = FaultInjector([FaultSpec(site="slow_batch", rate=1.0, max_fires=1,
                                   delay=0.25)])
    with use_faults(inj):
        out, timing = executor.run(_images(2, seed=3), 2, clock=clock,
                                   sleep=sleep)
    assert t[0] == pytest.approx(0.25)
    assert timing.finished - timing.started >= 0.25


def test_retry_exhaustion_without_isolation_fails_whole_batch():
    executor = ModelExecutor(_model(), input_shapes=[INPUT], bucket_sizes=(4,))
    inj = FaultInjector([FaultSpec(site="kernel", rate=1.0)])
    clock, sleep, _ = _virtual_time()
    with use_faults(inj):
        rows, errors, stats, _ = executor.run_resilient(
            _images(4, seed=5), 4, clock=clock, request_ids=[0, 1, 2, 3],
            retry=RetryPolicy(max_attempts=2, base_delay=0.0), sleep=sleep,
            isolate=False,
        )
    assert sorted(errors) == [0, 1, 2, 3]
    assert all(r is None for r in rows)
    assert all(isinstance(e, RequestFailed) for e in errors.values())


# ---------------------------------------------------------------------------
# Graceful degradation down the backend chain
# ---------------------------------------------------------------------------

def test_repeated_kernel_faults_demote_workload_and_recover():
    # "numpy is broken": faults fire only while the resolved backend is
    # numpy, so demoting the workload one step down the default chain, to
    # reference, makes them stop — observable recovery.  The executors
    # start on numpy whatever REPRO_BACKEND says, so the backend filter
    # below matches before the demotion.
    with backend_override("numpy"):
        executor = ModelExecutor(
            _model(), input_shapes=[INPUT], bucket_sizes=(2,), degrade_after=2,
        )
        inj = FaultInjector([FaultSpec(site="kernel", rate=1.0,
                                       backends=("numpy",))])
        images = _images(2, seed=6)
        clean = ModelExecutor(_model(), input_shapes=[INPUT], bucket_sizes=(2,))
        clean_rows, _, _, _ = clean.run_resilient(images, 2)
        clock, sleep, _ = _virtual_time()
        with use_faults(inj):
            for _ in range(2):  # two consecutive non-poison kernel faults
                _, errors, _, _ = executor.run_resilient(
                    images, 2, clock=clock, sleep=sleep, isolate=False)
                assert errors
            events = executor.degraded()
            assert len(events) == 1
            assert events[0]["backend"] == "reference"
            assert events[0]["bucket"] == 2
            # Demoted: the backend filter no longer matches, batches succeed
            # on the reference kernels, allclose to the clean numpy rows.
            rows, errors, _, _ = executor.run_resilient(
                images, 2, clock=clock, sleep=sleep)
            assert not errors
    for row, clean_row in zip(rows, clean_rows):
        np.testing.assert_allclose(row, clean_row, rtol=1e-4, atol=1e-5)


def test_default_chain_demotes_off_the_default_backend():
    # ServingPolicy(degrade_after=K) must be able to demote in a default
    # process: the executor's default chain has to start at the default
    # backend and have a step below it.
    if REGISTRY.resolve_name("conv2d", "default") != "numpy":
        pytest.skip("REPRO_BACKEND moved the default off numpy")
    executor = ModelExecutor(_model(), input_shapes=[INPUT], bucket_sizes=(2,),
                             degrade_after=2)
    inj = FaultInjector([FaultSpec(site="kernel", rate=1.0, backends=("numpy",))])
    images = _images(2, seed=8)
    clock, sleep, _ = _virtual_time()
    failed = []
    with use_faults(inj):
        for _ in range(4):
            _, errors, _, _ = executor.run_resilient(
                images, 2, clock=clock, sleep=sleep, isolate=False)
            failed.append(len(errors))
    assert failed == [2, 2, 0, 0]
    assert [e["backend"] for e in executor.degraded()] == ["reference"]


def test_backend_override_reaches_every_kernel_of_a_fused_scc_model():
    # The ladder demotes a workload by running its forward under
    # backend_override(): every conv and SCC layer of a fused serving model
    # must follow it, including layers built before the override began.
    with record_kernel_calls() as calls:
        model = build_serving_model("mobilenet", scheme="scc",
                                    width_mult=0.25, seed=4)
        x = Tensor(np.stack(_images(1, seed=9)))
        with backend_override("reference"), no_grad():
            demoted = model(x).data
    used = Counter((c.op, c.backend) for c in calls)
    assert used[("conv2d", "reference")] == 14
    assert used[("scc_forward", "reference")] == 13
    assert not [key for key in used if key[1] == "numpy"]
    with backend_override("numpy"), no_grad():
        np.testing.assert_allclose(demoted, model(x).data, rtol=1e-4, atol=1e-5)


# ---------------------------------------------------------------------------
# Server integration: typed failures, accounting, ResultTimeout
# ---------------------------------------------------------------------------

def test_server_surfaces_request_failed_and_accounts_it():
    clock, sleep, t = _virtual_time()
    server = Server(
        _model(), input_shapes=[INPUT],
        config=ServingPolicy(bucket_sizes=(4,), max_latency=1.0,
                            retry=RetryPolicy(max_attempts=2, base_delay=0.0)),
        clock=clock, sleep=sleep, name="m",
    )
    inj = FaultInjector(poison_ids=[("m", 1)])
    with use_faults(inj):
        ids = [server.submit(im) for im in _images(4, seed=7)]
        server.flush()
    assert server.status(ids[1]) == RequestStatus.FAILED
    assert isinstance(server.failure(ids[1]), RequestFailed)
    with pytest.raises(RequestFailed):
        server.wait_result(ids[1], timeout=0.1)
    for rid in (ids[0], ids[2], ids[3]):
        assert server.status(rid) == RequestStatus.DONE
        assert server.result(rid) is not None
    m = server.metrics()
    assert m.completed == 3 and m.failed == 1 and m.isolated_batches == 1
    assert server.pending_count() == 0  # nothing leaked


def test_wait_result_timeout_raises_typed_result_timeout():
    server = Server(_model(), input_shapes=[INPUT],
                    config=ServingPolicy(bucket_sizes=(4,), max_latency=10.0))
    rid = server.submit(_images(1)[0])
    with pytest.raises(ResultTimeout) as exc_info:
        server.wait_result(rid, timeout=0.05)
    err = exc_info.value
    assert isinstance(err, TimeoutError)       # legacy handlers keep working
    assert err.request_id == rid and err.timeout == 0.05
    assert err.status == RequestStatus.PENDING
    assert server.pending_count() == 1          # accounted, not leaked
    server.flush()
    assert server.result(rid) is not None       # still completes afterwards


def test_server_breaker_opens_sheds_and_recloses():
    clock, sleep, t = _virtual_time()
    server = Server(
        _model(), input_shapes=[INPUT],
        config=ServingPolicy(bucket_sizes=(4,), max_latency=1.0,
                            breaker_window=16, breaker_min_samples=4,
                            breaker_threshold=0.5, breaker_cooldown=0.5),
        clock=clock, sleep=sleep, name="broken",
    )
    # 7 fires fail one isolated batch of 4 completely (1 full + 2 halves +
    # 4 singletons), then the outage ends.
    inj = FaultInjector([FaultSpec(site="kernel", rate=1.0, max_fires=7,
                                   models=("broken",))])
    with use_faults(inj):
        ids = [server.submit(im) for im in _images(4, seed=8)]
        server.flush()
        assert server.metrics().failed == 4
        assert server.metrics().breaker_state == "open"
        with pytest.raises(ModelUnavailable):
            server.submit(_images(1)[0])
        assert server.metrics().unavailable == 1
        t[0] += 1.0                         # cooldown passes (virtual clock)
        probe = server.submit(_images(1, seed=9)[0])   # half-open probe
        server.flush()
        assert server.result(probe) is not None
        assert server.metrics().breaker_state == "closed"
        snap = server.breaker_snapshot()
        assert [(frm, to) for _, frm, to in
                [tuple(tr) for tr in snap["transitions"]]] == [
            ("closed", "open"), ("open", "half_open"), ("half_open", "closed")]
        assert snap["opens"] == 1 and snap["closes"] == 1


# ---------------------------------------------------------------------------
# Chaos soak: 5% transient faults + poison, virtual clock, bitwise goodput
# ---------------------------------------------------------------------------

def _soak_router(clock, sleep):
    router = Router(
        server_config=ServingPolicy(
            bucket_sizes=(4,), max_latency=0.05,
            retry=RetryPolicy(max_attempts=3, base_delay=0.001, seed=11),
            breaker_window=32, breaker_min_samples=8,
            breaker_threshold=0.5, breaker_cooldown=0.5,
        ),
        clock=clock, sleep=sleep,
    )
    router.register("healthy", _model(), input_shapes=[INPUT])
    return router


def _drive_soak(router, images, t):
    handles = []
    for im in images:
        t[0] += 0.001
        handles.append(router.submit("healthy", im))
        router.poll()
    t[0] += 1.0
    router.flush()
    return handles


@pytest.mark.slow
def test_chaos_soak_goodput_bitwise_and_breaker_visibility():
    images = _images(100, seed=12)
    poison = [("healthy", 17), ("healthy", 42)]

    # Fault-free reference run of the identical trace.
    clock, sleep, t = _virtual_time()
    router = _soak_router(clock, sleep)
    handles = _drive_soak(router, images, t)
    reference = [router.result(h).output for h in handles]

    # Chaos run: 5% transient kernel faults + two poisoned requests, plus a
    # scripted outage on a co-registered broken model.  The broken model is
    # served under the router's policy (3 attempts per span), so failing a
    # batch of 4 completely takes 3 + 2*3 + 4*3 = 21 fires; two such
    # batches give the breaker its 8 samples.
    clock, sleep, t = _virtual_time()
    router = _soak_router(clock, sleep)
    router.register("broken", _model(), input_shapes=[INPUT])
    inj = FaultInjector(
        [
            FaultSpec(site="kernel", rate=0.05, models=("healthy",)),
            FaultSpec(site="kernel", rate=1.0, max_fires=42,
                      models=("broken",)),
        ],
        seed=13,
        poison_ids=poison,
    )
    with use_faults(inj):
        handles = _drive_soak(router, images, t)

        # Break the broken model, observe the breaker open, recover it.
        broken_ids = [router.submit("broken", im) for im in _images(8, seed=14)]
        router.flush()
        with pytest.raises(ModelUnavailable):
            router.submit("broken", _images(1)[0])
        t[0] += 1.0
        probe = router.submit("broken", _images(1, seed=15)[0])
        router.flush()

    poisoned_ids = {rid for _, rid in poison}
    succeeded = failed = 0
    for handle in handles:
        status = router.status(handle)
        if status == RequestStatus.DONE:
            succeeded += 1
        elif status == RequestStatus.FAILED:
            failed += 1
            # Zero silent drops: every failure carries a typed exception.
            assert isinstance(router.failure(handle), RequestFailed)
        else:  # no third state may exist for an executed trace
            raise AssertionError(f"unaccounted request: {status}")
    assert succeeded + failed == len(images)
    assert failed <= len(poisoned_ids)

    # >= 99% goodput for non-poisoned requests, every survivor bitwise
    # identical to the fault-free run (same bucket padding discipline).
    non_poisoned = [h for h in handles if h.request_id not in poisoned_ids]
    good = 0
    for handle, ref in zip(handles, reference):
        if handle.request_id in poisoned_ids:
            continue
        result = router.result(handle)
        if result is None:
            continue
        np.testing.assert_array_equal(result.output, ref)
        good += 1
    assert good / len(non_poisoned) >= 0.99
    assert inj.stats()["site_fires"]["kernel"] > 0  # chaos actually happened

    # Breaker transitions are visible in RouterMetrics.
    metrics = router.metrics()
    assert metrics.failed >= 4                       # broken model's batch
    assert metrics.unavailable >= 1
    assert metrics.breaker_opens >= 1
    transitions = [(frm, to) for _, frm, to in
                   metrics.breakers["broken"]["transitions"]]
    assert ("closed", "open") in transitions
    assert ("half_open", "closed") in transitions
    assert metrics.breakers["broken"]["state"] == "closed"
    assert router.result(probe) is not None
    # Retries happened on the virtual timeline only (no real sleeping).
    assert metrics.retries >= 0 and t[0] > 0.0


# ---------------------------------------------------------------------------
# AsyncGateway: drain with a raising in-flight batch, breaker recovery
# ---------------------------------------------------------------------------

def test_gateway_drain_resolves_every_future_of_a_raising_batch():
    async def main():
        gw = AsyncGateway(ServingPolicy(bucket_sizes=(4,), max_latency=30.0,
                                        shed_policy="deadline"))
        gw.register("m", _model(), input_shapes=[INPUT])
        inj = FaultInjector([FaultSpec(site="kernel", rate=1.0, models=("m",))])
        with use_faults(inj):
            tasks = [asyncio.ensure_future(gw.submit("m", im))
                     for im in _images(3, seed=22)]
            await asyncio.sleep(0)      # enqueued; 3 < bucket 4, nothing due
            await gw.stop(drain=True)   # drain force-dispatches the remainder
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        # Every await-er resolves — with the typed per-request failure, not
        # a hang or a silent drop.
        assert len(outcomes) == 3
        for outcome in outcomes:
            assert isinstance(outcome, RequestFailed)
            assert isinstance(outcome.__cause__, InjectedFault)
        m = gw.metrics()["m"]
        assert m.failed == 3 and m.completed == 0

    asyncio.run(main())


def test_gateway_breaker_opens_sheds_and_recloses():
    async def main():
        t = [0.0]
        gw = AsyncGateway(
            ServingPolicy(bucket_sizes=(4,), max_latency=0.005,
                          shed_policy="deadline", breaker_window=16,
                          breaker_min_samples=4, breaker_threshold=0.5,
                          breaker_cooldown=0.5),
            clock=lambda: t[0],
            sleep=lambda dt: t.__setitem__(0, t[0] + dt),
        )
        gw.register("m", _model(), input_shapes=[INPUT])
        # One full batch of 4 fails completely in exactly 7 fires (full +
        # 2 halves + 4 singletons), then the scripted outage ends.
        inj = FaultInjector([FaultSpec(site="kernel", rate=1.0, max_fires=7,
                                       models=("m",))])
        with use_faults(inj):
            outcomes = await asyncio.gather(
                *[gw.submit("m", im) for im in _images(4, seed=20)],
                return_exceptions=True,
            )
            assert all(isinstance(o, RequestFailed) for o in outcomes)
            with pytest.raises(ModelUnavailable):
                await gw.submit("m", _images(1)[0])
            t[0] += 1.0             # virtual cooldown passes
            probe = asyncio.ensure_future(
                gw.submit("m", _images(1, seed=21)[0])
            )
            await asyncio.sleep(0)  # half-open probe admitted and enqueued
            t[0] += 1.0             # its flush deadline passes (virtually)
            gw.kick()
            result = await probe
            assert result.output.shape == (10,)
            await gw.stop()
        m = gw.metrics()["m"]
        assert m.failed == 4 and m.unavailable == 1
        assert m.breaker_opens == 1 and m.breaker_state == "closed"
        trans = [(frm, to) for _, frm, to in
                 gw.breaker_snapshots()["m"]["transitions"]]
        assert trans == [("closed", "open"), ("open", "half_open"),
                         ("half_open", "closed")]

    asyncio.run(main())
