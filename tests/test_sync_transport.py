"""The synchronous transport behind ``Server`` and ``Router``: lifecycle
invariants under generated operation sequences, cross-model DRR order, and
shutdown robustness on every transport.
"""
import asyncio

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.backend import num_workers
from repro.faults import FaultInjector, use_faults
from repro.models import build_serving_model
from repro.serve import (
    AsyncGateway,
    ModelExecutor,
    QueueFull,
    RequestStatus,
    Router,
    Server,
    ServingPolicy,
)

SMALL = (3, 10, 10)   # a geometry no other test module serves
MODELS = {
    name: build_serving_model("mobilenet", scheme="scc", width_mult=0.25, seed=seed)
    for name, seed in (("a", 61), ("b", 62))
}


def _image(seed: int, shape=SMALL) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


# ---------------------------------------------------------------------------
# Stateful model: a virtual-clock Router with two models
# ---------------------------------------------------------------------------

class SyncTransportMachine(RuleBasedStateMachine):
    """Random submit / poll / flush / clock / poison / shed sequences.

    Every issued handle must be in exactly one lifecycle state, the
    pending count must equal the PENDING handles, and nothing reported
    shed may ever complete.
    """

    def __init__(self) -> None:
        super().__init__()
        self.t = [0.0]
        self.router = Router(
            server_config=ServingPolicy(bucket_sizes=(1, 4), max_latency=1.0,
                                        max_pending=6, shed_policy="deadline"),
            clock=lambda: self.t[0],
            sleep=lambda dt: self.t.__setitem__(0, self.t[0] + dt),
        )
        for name, model in MODELS.items():
            self.router.register(name, model, input_shapes=[SMALL])
        self.handles = []
        self.poison: set[tuple[str, int]] = set()
        self.seen_shed: set = set()

    def _faults(self):
        return use_faults(FaultInjector(poison_ids=sorted(self.poison)))

    def _submit(self, model: str, deadline, poisoned: bool = False) -> None:
        if poisoned:   # ids are issued in acceptance order, from 0
            self.poison.add((model, len(self.handles)))
        with self._faults():
            try:
                self.handles.append(self.router.submit(
                    model, _image(len(self.handles)), deadline=deadline))
            except QueueFull:
                self.poison.discard((model, len(self.handles)))

    @rule(model=st.sampled_from(sorted(MODELS)))
    def submit(self, model):
        self._submit(model, None)

    @rule(model=st.sampled_from(sorted(MODELS)),
          budget=st.sampled_from([-0.5, 0.0, 0.5, 2.0]))
    def submit_with_deadline(self, model, budget):
        self._submit(model, self.t[0] + budget)

    @rule(model=st.sampled_from(sorted(MODELS)))
    def submit_poisoned(self, model):
        self._submit(model, None, poisoned=True)

    @rule()
    def poll(self):
        with self._faults():
            self.router.poll()

    @rule()
    def flush(self):
        with self._faults():
            self.router.flush()

    @rule(dt=st.sampled_from([0.25, 0.5, 1.0, 3.0]))
    def advance_clock(self, dt):
        self.t[0] += dt

    @rule()
    def stop_without_drain(self):
        self.router.stop(drain=False)

    @invariant()
    def every_handle_in_exactly_one_state(self):
        for handle in self.handles:
            status = self.router.status(handle)
            flags = {
                RequestStatus.DONE: self.router.result(handle) is not None,
                RequestStatus.FAILED: self.router.failure(handle) is not None,
                RequestStatus.SHED: self.router.was_shed(handle),
            }
            assert sum(flags.values()) <= 1, (handle, flags)
            for state, flag in flags.items():
                assert flag == (status == state), (handle, status, flags)
            if status == RequestStatus.SHED:
                self.seen_shed.add(handle)

    @invariant()
    def pending_count_matches_pending_handles(self):
        pending = sum(self.router.status(h) == RequestStatus.PENDING
                      for h in self.handles)
        assert self.router.pending_count() == pending

    @invariant()
    def shed_requests_never_complete(self):
        for handle in self.seen_shed:
            assert self.router.status(handle) in (RequestStatus.SHED,
                                                  RequestStatus.EVICTED)


def test_sync_transport_state_machine():
    with num_workers(1):
        machine = SyncTransportMachine.TestCase
        machine.settings = settings(
            max_examples=15, stateful_step_count=20, deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        machine().runTest()


# ---------------------------------------------------------------------------
# Fairness: one core orders batches across models by DRR
# ---------------------------------------------------------------------------

def test_router_drr_runs_light_batch_between_heavy_backlog(monkeypatch):
    # A heavy model registered first has two due batches (two shapes); a
    # light model has one.  Draining model by model would run both heavy
    # batches first; DRR gives the light model its turn in between.
    order = []
    run_resilient = ModelExecutor.run_resilient

    def recording(self, images, bucket, *args, **kwargs):
        order.append((self.name, images[0].shape))
        return run_resilient(self, images, bucket, *args, **kwargs)

    monkeypatch.setattr(ModelExecutor, "run_resilient", recording)
    t = [0.0]
    big = (3, 16, 16)
    with num_workers(1):
        router = Router(server_config=ServingPolicy(bucket_sizes=(4,),
                                                    max_latency=1.0),
                        clock=lambda: t[0])
        router.register("heavy", MODELS["a"], input_shapes=[big, SMALL])
        router.register("light", MODELS["b"], input_shapes=[SMALL])
        for k in range(3):
            router.submit("heavy", _image(k, big))
        for k in range(3):
            router.submit("heavy", _image(10 + k))
        router.submit("light", _image(20))
        assert router.poll() == 0           # nothing due before max_latency
        t[0] = 1.0
        assert router.poll() == 3
    assert order == [("heavy", big), ("light", SMALL), ("heavy", SMALL)]


# ---------------------------------------------------------------------------
# Shutdown robustness: stop() twice, without start(), nothing unaccounted
# ---------------------------------------------------------------------------

def _policy() -> ServingPolicy:
    return ServingPolicy(bucket_sizes=(8,), max_latency=60.0)


@pytest.mark.parametrize("drain", [True, False])
def test_server_stop_is_idempotent_without_start(drain):
    server = Server(MODELS["a"], input_shapes=[SMALL], config=_policy())
    ids = [server.submit(_image(k)) for k in range(3)]
    server.stop(drain=drain)
    server.stop(drain=drain)
    expected = RequestStatus.DONE if drain else RequestStatus.SHED
    assert [server.status(rid) for rid in ids] == [expected] * 3
    metrics = server.metrics()
    assert (metrics.completed, metrics.shed) == ((3, 0) if drain else (0, 3))


@pytest.mark.parametrize("drain", [True, False])
def test_router_stop_is_idempotent_with_and_without_start(drain):
    for start in (False, True):
        router = Router(server_config=_policy())
        for name, model in MODELS.items():
            router.register(name, model, input_shapes=[SMALL])
        if start:
            router.start()
        handles = [router.submit(name, _image(k))
                   for k, name in enumerate(["a", "b", "a"])]
        router.stop(drain=drain)
        router.stop(drain=drain)
        expected = RequestStatus.DONE if drain else RequestStatus.SHED
        assert [router.status(h) for h in handles] == [expected] * 3
        metrics = router.metrics()
        assert metrics.completed + metrics.shed == 3


def test_gateway_stop_is_idempotent_without_start():
    async def main():
        idle = AsyncGateway(_policy())
        await idle.stop()
        await idle.stop()

        gw = AsyncGateway(_policy())
        gw.register("m", MODELS["a"], input_shapes=[SMALL])
        waiters = [asyncio.ensure_future(gw.submit("m", _image(k)))
                   for k in range(3)]
        await asyncio.sleep(0)
        await gw.stop()
        await gw.stop()
        results = await asyncio.gather(*waiters)
        assert all(r.output.shape == (10,) for r in results)
        assert gw.metrics()["m"].completed == 3

    asyncio.run(main())


def test_threaded_router_stress_accounts_every_request():
    # More pool workers than cores and a short switch interval: client
    # threads, the worker thread and pooled batch chains all contend on
    # the transport's tables.  Every request completes exactly once.
    import sys
    import threading

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with num_workers(4):
            router = Router(server_config=ServingPolicy(bucket_sizes=(1, 2, 4),
                                                        max_latency=0.002))
            for name, model in MODELS.items():
                router.register(name, model, input_shapes=[SMALL])
            router.start()
            results, errors = [], []

            def client(name, seed):
                try:
                    for k in range(6):
                        handle = router.submit(name, _image(100 * seed + k))
                        results.append(router.wait_result(handle, timeout=60.0))
                except BaseException as exc:  # surfaced after join
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=(name, seed))
                       for seed, name in enumerate(["a", "b"] * 3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in threads)
            router.stop()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(results) == 36 and len({r.id for r in results}) == 36
    metrics = router.metrics()
    assert metrics.completed == 36 and router.pending_count() == 0
