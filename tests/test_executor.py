"""The shared worker pool: pooled execution is bitwise-equal to serial.

The contract under test is the one ``repro.backend.parallel`` promises:
``parallel_map`` / ``submit_pooled`` produce **bitwise-identical** results
at every worker count and keep region results in order.
"""
import concurrent.futures

import numpy as np
import pytest

from repro.backend.parallel import num_workers, parallel_map, submit_pooled
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
