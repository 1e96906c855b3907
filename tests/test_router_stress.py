"""Stress/soak suite: the router hammered on a deliberately tiny plan cache.

Everything else in the test suite serves from a cache far larger than any
working set; here the *global* cache is resized to ~8 entries so every
batch churns through eviction and rebuild while N client threads hammer ≥3
models concurrently.  The invariants under that contention:

- no deadlock and no lost or duplicated requests (every submitted id
  completes exactly once with a well-formed output);
- single-flight holds under eviction pressure: ``misses == builds``;
- per-owner counters reconcile with the global ``plan_cache_stats()``;
- the eviction counter is consistent with the resident size
  (``size == builds - evictions`` from a cleared cache);
- the maxsize bound is never exceeded.

Marked ``slow``: CI runs this file in its own job (tier-1 still includes
it; deselect locally with ``-m "not slow"`` for quick iteration).
"""
import threading

import numpy as np
import pytest

from repro.backend import PLAN_CACHE, clear_plan_cache, plan_cache_stats
from repro.serve import Router, ServingPolicy
from repro.utils import seed_all

pytestmark = pytest.mark.slow

INPUT = (3, 8, 8)
TINY_CACHE = 8


@pytest.fixture
def tiny_global_cache():
    """Shrink the process-wide cache to TINY_CACHE entries, then restore."""
    old_maxsize = PLAN_CACHE.maxsize
    clear_plan_cache()          # counters from a known-zero baseline
    PLAN_CACHE.resize(TINY_CACHE)
    try:
        yield PLAN_CACHE
    finally:
        PLAN_CACHE.resize(old_maxsize)
        clear_plan_cache()      # later tests re-warm from a clean slate


def _three_model_router(**config_kwargs):
    seed_all(57)
    config_kwargs.setdefault("max_latency", 0.01)
    config = ServingPolicy(bucket_sizes=(1, 2, 4), **config_kwargs)
    router = Router(server_config=config)
    router.register("mnet-a", "mobilenet", input_shapes=[INPUT],
                    scheme="scc", width_mult=0.25, seed=71)
    router.register("mnet-b", "mobilenet", input_shapes=[INPUT],
                    scheme="pw", width_mult=0.25, seed=72)
    router.register("mnet-c", "mobilenet", input_shapes=[INPUT],
                    scheme="scc", cg=1, co=0.75, width_mult=0.5, seed=73)
    return router


def _assert_cache_invariants(cache, stats=None):
    stats = stats or plan_cache_stats()
    assert stats["misses"] == stats["builds"], stats
    assert stats["size"] == len(cache) <= TINY_CACHE, stats
    # From a cleared cache with no failed builds, every build inserted one
    # entry and every eviction removed one.
    assert stats["size"] == stats["builds"] - stats["evictions"], stats
    owners = cache.owner_stats()
    for key in ("hits", "misses", "builds", "evictions"):
        assert sum(acc[key] for acc in owners.values()) == stats[key], key
    assert sum(acc["size"] for acc in owners.values()) == stats["size"]
    return owners


def test_threaded_hammer_on_tiny_cache(tiny_global_cache):
    router = _three_model_router()
    router.reset_metrics()
    window_base = plan_cache_stats()   # registration churn precedes the window
    router.start()
    requests_per_client = 6
    client_specs = [(name, seed) for name in router.models() for seed in range(2)]
    results = {}
    errors = []
    lock = threading.Lock()
    try:
        def client(name, seed):
            rng = np.random.default_rng(100 * seed + hash(name) % 97)
            try:
                for i in range(requests_per_client):
                    image = rng.standard_normal(INPUT).astype(np.float32)
                    handle = router.submit(name, image)
                    result = router.wait_result(handle, timeout=60.0)
                    with lock:
                        key = (name, seed, i)
                        assert key not in results  # no duplicated completion
                        results[key] = result
            except BaseException as exc:  # surfaced after join
                with lock:
                    errors.append((name, seed, exc))

        threads = [threading.Thread(target=client, args=spec)
                   for spec in client_specs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        assert not any(t.is_alive() for t in threads), "deadlocked client threads"
    finally:
        router.stop()

    assert errors == []
    # No lost requests: every (client, index) completed with a sane output.
    assert len(results) == len(client_specs) * requests_per_client
    assert all(r.output.shape == (10,) and np.isfinite(r.output).all()
               for r in results.values())

    stats = plan_cache_stats()
    owners = _assert_cache_invariants(tiny_global_cache, stats)
    # The tiny cache really was driven through eviction, by every model.
    assert stats["evictions"] > 0
    assert all(owners[name]["misses"] > 0 for name in router.models())
    metrics = router.metrics()
    assert metrics.completed == len(results)
    assert metrics.shed == 0 and metrics.rejected == 0
    assert metrics.cache_evictions == stats["evictions"] - window_base["evictions"]


def test_sync_soak_interleaved_models_on_tiny_cache(tiny_global_cache):
    # Deterministic (single-threaded) soak: a long interleaved stream, the
    # cache thrashing on every batch, every result still bit-identical to a
    # rerun of the same stream.
    router = _three_model_router(max_latency=10.0)
    rng = np.random.default_rng(3)
    stream = [(("mnet-a", "mnet-b", "mnet-c")[rng.integers(3)],
               rng.standard_normal(INPUT).astype(np.float32))
              for _ in range(60)]

    def run():
        handles = [router.submit(name, image) for name, image in stream]
        router.flush()
        return [router.result(h).output for h in handles]

    first = run()
    _assert_cache_invariants(tiny_global_cache)
    second = run()
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)
    assert plan_cache_stats()["evictions"] > 0


def test_shed_under_overload_loses_nothing_silently(tiny_global_cache):
    # Admission control under concurrent overload: every submit either
    # returns a handle that completes, or raises QueueFull and is counted.
    from repro.serve import QueueFull

    router = _three_model_router(max_pending=4)
    router.reset_metrics()
    router.start()
    outcomes = {"completed": 0, "rejected": 0}
    lock = threading.Lock()
    try:
        def client(name, seed):
            rng = np.random.default_rng(seed)
            for _ in range(8):
                image = rng.standard_normal(INPUT).astype(np.float32)
                try:
                    handle = router.submit(name, image)
                except QueueFull:
                    with lock:
                        outcomes["rejected"] += 1
                    continue
                router.wait_result(handle, timeout=60.0)
                with lock:
                    outcomes["completed"] += 1

        threads = [threading.Thread(target=client, args=(name, seed))
                   for name in router.models() for seed in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        assert not any(t.is_alive() for t in threads)
    finally:
        router.stop()

    metrics = router.metrics()
    total = 3 * 2 * 8
    assert outcomes["completed"] + outcomes["rejected"] == total
    assert metrics.completed == outcomes["completed"]
    assert metrics.rejected == outcomes["rejected"]
    assert metrics.shed == 0
    _assert_cache_invariants(tiny_global_cache)
