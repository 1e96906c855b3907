"""Concurrent kernel execution is bitwise-equal to serial.

Inline ``Server``/``Router`` drains run batches on whichever client thread
made them due, so concurrent clients run kernels at once, and kernels must
give **bitwise-identical** results whatever else runs beside them.  The workloads are numpy conv, depthwise and SCC
forward+backward passes run concurrently on a thread pool, so they also
exercise the process-wide plans and the thread-local ``SCCPlan.w_full``
scratch from several threads at once.
"""
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.tensor.conv_ops import Conv2d
from repro.utils import seed_all

from tests.helpers import run_scc


@pytest.fixture(autouse=True)
def _seed():
    seed_all(23)


def _conv(seed, x_shape, w_shape, stride, padding, groups):
    """One numpy conv forward+backward on seeded operands."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(x_shape).astype(np.float32)
    w = rng.standard_normal(w_shape).astype(np.float32)
    fn = Conv2d()
    fn.needs_input_grad = (True, True)
    out = fn.forward(x, w, stride, padding, groups, backend="numpy")
    gx, gw = fn.backward(np.ones_like(out))
    return out, gx, gw


def _conv_workload(seed):
    return _conv(seed, (4, 8, 12, 12), (16, 8, 3, 3), 1, 1, 1)


def _depthwise_workload(seed):
    return _conv(seed, (4, 8, 11, 11), (16, 1, 3, 3), 2, 1, 8)


def _scc_workload(seed):
    """One dsxplore SCC forward+backward.  Its input-centric pull GEMM
    fills the plan's thread-local ``w_full`` scratch; every seed has its
    own weights, so a scratch shared between threads would mix them."""
    from repro.core.channel_map import SCCConfig

    cfg = SCCConfig(in_channels=64, out_channels=128, cg=4, co=0.5)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 64, 16, 16)).astype(np.float32)
    w = rng.standard_normal((128, cfg.group_width)).astype(np.float32)
    out, gx, gw, _ = run_scc(cfg, x, w, 1.0)
    return out, gx, gw


# ---------------------------------------------------------------------------
# Concurrent runs on a pool == serial runs, bitwise, at 1, 2 and 4 workers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize(
    "workload", [_conv_workload, _depthwise_workload, _scc_workload]
)
def test_pooled_bitwise_identical_to_one_worker(workload, workers):
    seeds = range(4 * workers + 4)
    serial = [workload(seed) for seed in seeds]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pooled = list(pool.map(workload, seeds))
    for seed, want, got in zip(seeds, serial, pooled):
        for ref, arr in zip(want, got):
            np.testing.assert_array_equal(
                ref, arr, err_msg=f"seed {seed} diverged at {workers} workers"
            )
