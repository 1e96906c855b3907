"""The shared worker pool: pooled execution is bitwise-equal to serial.

The contract under test is the one ``repro.backend.parallel`` promises:
``parallel_map`` / ``submit_pooled`` produce **bitwise-identical** results
at every worker count, keep region results in order, and a tuned plan's
recorded ``backend`` / ``workers`` apply at dispatch without changing any
result.
"""
import concurrent.futures

import numpy as np
import pytest

from repro.backend import PLAN_CACHE, dispatch_plan
from repro.backend.parallel import (
    get_num_workers,
    num_workers,
    parallel_map,
    submit_pooled,
    worker_limit,
)
from repro.tensor.conv_ops import Conv2d
from repro.utils import seed_all


@pytest.fixture(autouse=True)
def _seed():
    seed_all(23)


def _conv_workload(backend="threaded"):
    """One conv forward+backward on the pooled (threaded) backend."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 8, 12, 12)).astype(np.float32)
    w = rng.standard_normal((16, 8, 3, 3)).astype(np.float32)
    fn = Conv2d()
    fn.needs_input_grad = (True, True)
    out = fn.forward(x, w, 1, 1, 1, backend=backend)
    gx, gw = fn.backward(np.ones_like(out))
    return out, gx, gw


def _scc_workload():
    """One SCC strategy forward+backward (pull GEMM exercises the pool)."""
    from repro.core.channel_map import SCCConfig
    from repro.core.scc_kernels import Dsxplore

    cfg = SCCConfig(in_channels=16, out_channels=16, cg=4, co=0.5)
    layer = Dsxplore(cfg)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 16, 6, 6)).astype(np.float32)
    w = rng.standard_normal((16, cfg.group_width)).astype(np.float32)
    out = layer.forward(x, w)
    gx, gw = layer.backward(np.ones_like(out))
    return out, gx, gw


# ---------------------------------------------------------------------------
# Pooled == serial, bitwise, at 2 and 4 workers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("workload", [_conv_workload, _scc_workload])
def test_pooled_bitwise_identical_to_one_worker(workload, workers):
    with num_workers(1):
        serial = workload()
    with num_workers(workers):
        pooled = workload()
    for ref, got in zip(serial, pooled):
        np.testing.assert_array_equal(
            ref, got, err_msg=f"pool diverged at {workers} workers"
        )


def test_parallel_map_results_ordered():
    items = list(range(17))
    with num_workers(4):
        assert parallel_map(lambda i: i * i, items, op="square") == [
            i * i for i in items
        ]


def test_submit_pooled_returns_future():
    future = submit_pooled(pow, 3, 4)
    assert isinstance(future, concurrent.futures.Future)
    assert future.result(timeout=30) == 81


# ---------------------------------------------------------------------------
# worker_limit: thread-scoped caps
# ---------------------------------------------------------------------------

def test_worker_limit_caps_and_lifts():
    with num_workers(4):
        assert get_num_workers() == 4
        with worker_limit(2):
            assert get_num_workers() == 2
            with worker_limit(None):  # None lifts the enclosing cap
                assert get_num_workers() == 4
            assert get_num_workers() == 2
        assert get_num_workers() == 4
    with pytest.raises(ValueError, match="worker_limit"):
        with worker_limit(0):
            pass


def test_worker_limit_never_raises_above_pool_size():
    with num_workers(2), worker_limit(16):
        assert get_num_workers() == 2


# ---------------------------------------------------------------------------
# Plan-resolved execution (PlanDatabase backend/workers at dispatch)
# ---------------------------------------------------------------------------

def _tuned_db(workers=2, backend="threaded"):
    from repro.backend import PlanDatabase
    from repro.backend.workload import Workload

    db = PlanDatabase()
    wl = Workload.make(
        "conv2d", (2, 4, 8, 8), (4, 4, 3, 3), np.float32,
        stride=1, padding=1, groups=1,
    )
    db.record(
        wl,
        plan={"k_tile": 0, "gradw_tile": 0,
              "backend": backend, "workers": workers},
        score=1.0,
    )
    return db


def test_plan_resolves_tuned_backend_and_workers():
    from repro.backend import conv2d_plan, use_plan_db

    PLAN_CACHE.clear()
    try:
        with use_plan_db(_tuned_db()):
            plan = conv2d_plan((2, 4, 8, 8), (4, 4, 3, 3), 1, 1, 1, np.float32)
        assert plan.resolved_backend == "threaded"
        assert plan.resolved_workers == 2
        assert plan.resolved_executor == "threaded@2"
    finally:
        PLAN_CACHE.clear()


def test_plan_without_db_resolves_nothing():
    from repro.backend import conv2d_plan

    PLAN_CACHE.clear()
    plan = conv2d_plan((2, 4, 8, 8), (4, 4, 3, 3), 1, 1, 1, np.float32)
    assert plan.resolved_backend is None
    assert plan.resolved_workers is None
    assert plan.resolved_executor is None


def test_dispatch_plan_applies_and_releases_overrides():
    from repro.backend import conv2d_plan, use_plan_db
    from repro.backend.registry import current_backend_override

    PLAN_CACHE.clear()
    try:
        with use_plan_db(_tuned_db()):
            plan = conv2d_plan((2, 4, 8, 8), (4, 4, 3, 3), 1, 1, 1, np.float32)
        with num_workers(4):
            with dispatch_plan(plan):
                assert current_backend_override() == "threaded"
                assert get_num_workers() == 2
            assert current_backend_override() is None
            assert get_num_workers() == 4
            with dispatch_plan(plan, apply_backend=False):
                assert current_backend_override() is None
                assert get_num_workers() == 2
    finally:
        PLAN_CACHE.clear()


def test_dispatch_plan_defers_to_active_override():
    from repro.backend import conv2d_plan, use_plan_db
    from repro.backend.registry import backend_override, current_backend_override

    PLAN_CACHE.clear()
    try:
        with use_plan_db(_tuned_db(backend="numpy")):
            plan = conv2d_plan((2, 4, 8, 8), (4, 4, 3, 3), 1, 1, 1, np.float32)
        with backend_override("reference"):
            with dispatch_plan(plan):
                # An explicit caller override outranks the tuned record.
                assert current_backend_override() == "reference"
    finally:
        PLAN_CACHE.clear()


def test_tuned_dispatch_is_bitwise_invisible():
    from repro.backend import use_plan_db

    PLAN_CACHE.clear()
    base = _conv_workload(backend="default")
    PLAN_CACHE.clear()
    try:
        with use_plan_db(_tuned_db(workers=1)):
            tuned = _conv_workload(backend="default")
    finally:
        PLAN_CACHE.clear()
    for ref, got in zip(base, tuned):
        np.testing.assert_array_equal(ref, got)
