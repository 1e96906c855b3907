"""The parallel worker pool, the ``threaded`` backend and backend selection.

The ``threaded`` backend's contract is *bitwise* equality with ``numpy`` —
its sharding only cuts along axes that preserve every reduction order — so
these tests assert ``array_equal``, not ``allclose``, across all three SCC
strategies, both conv paddings and both float dtypes, plus exact equality
of the merged :class:`KernelStats` totals (the gpusim crosscheck depends on
counters being backend-invariant).
"""
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.backend import (
    KernelStats,
    available_backends,
    conv2d_plan,
    env_backend_order,
    get_kernel,
    get_num_workers,
    num_workers,
    parallel_map,
    scc_plan,
    set_num_workers,
)
from repro.backend.parallel import shard_slices
from repro.backend.workload import current_plan_owner, plan_owner
from repro.core.channel_map import SCCConfig
from repro.core.scc_kernels import make_strategy

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _pool():
    """Run this module's pool work at 3 workers, restoring the ambient size."""
    with num_workers(3):
        yield


# ---------------------------------------------------------------------------
# Pool mechanics
# ---------------------------------------------------------------------------

def test_shard_slices_cover_and_balance():
    for total, parts in [(10, 3), (4, 8), (1, 1), (7, 7), (16, 4)]:
        slices = shard_slices(total, parts)
        assert len(slices) == min(total, parts)
        covered = [i for sl in slices for i in range(sl.start, sl.stop)]
        assert covered == list(range(total))
        sizes = [sl.stop - sl.start for sl in slices]
        assert max(sizes) - min(sizes) <= 1


def test_parallel_map_runs_on_pool_and_preserves_order():
    threads = parallel_map(lambda i: (i, threading.current_thread().name),
                           range(8), op="probe")
    assert [i for i, _ in threads] == list(range(8))
    assert any(name.startswith("repro-worker") for _, name in threads)


def test_parallel_map_propagates_plan_owner_into_tasks():
    with plan_owner("model-a"):
        owners = parallel_map(lambda _: current_plan_owner(), range(4), op="owner")
    assert owners == ["model-a"] * 4


def test_parallel_map_propagates_exceptions():
    def boom(i):
        if i == 2:
            raise RuntimeError("shard failed")
        return i

    with pytest.raises(RuntimeError, match="shard failed"):
        parallel_map(boom, range(4), op="boom")


def test_nested_parallel_map_runs_inline_without_deadlock():
    # More tasks than workers, each submitting a nested region: the nested
    # call must run inline on its worker (a re-submit could starve the pool).
    def outer(i):
        return sum(parallel_map(lambda j: i * 10 + j, range(4), op="inner"))

    with num_workers(2):
        assert parallel_map(outer, range(6), op="outer") == [
            sum(i * 10 + j for j in range(4)) for i in range(6)
        ]


def test_parallel_map_exactly_once_under_concurrent_resize():
    # set_num_workers shuts the stale pool down mid-flight; a region caught
    # submitting must resume its *remainder* on the fresh pool — every task
    # runs exactly once and results stay ordered.
    import collections
    import time as _time

    counts = collections.Counter()
    count_lock = threading.Lock()

    def work(i):
        _time.sleep(0.0005)
        with count_lock:
            counts[i] += 1
        return i

    stop = threading.Event()

    def resizer():
        n = 0
        while not stop.is_set():
            set_num_workers(2 + n % 3)
            n += 1
            _time.sleep(0.0003)

    thread = threading.Thread(target=resizer)
    thread.start()
    try:
        for _ in range(10):
            assert parallel_map(work, range(20), op="resize-race") == list(range(20))
    finally:
        stop.set()
        thread.join()
    assert all(counts[i] == 10 for i in range(20)), counts


def test_num_workers_context_restores():
    base = get_num_workers()
    with num_workers(1):
        assert get_num_workers() == 1
        # workers == 1 runs inline: no pool thread names involved.
        names = parallel_map(lambda _: threading.current_thread().name,
                             range(4), op="inline")
        assert all(n == threading.current_thread().name for n in names)
    assert get_num_workers() == base


def test_set_num_workers_rejects_nonpositive():
    with pytest.raises(ValueError, match="num_workers"):
        set_num_workers(0)


# ---------------------------------------------------------------------------
# Submission shutdown discipline: terminal failures raise, resizes retry
# ---------------------------------------------------------------------------

class _DeadExecutor:
    """Stands in for a pool whose ``submit`` can never succeed again."""

    def __init__(self, message: str):
        self.message = message
        self.submits = 0

    def submit(self, fn, /, *args):
        self.submits += 1
        raise RuntimeError(self.message)


def test_submit_pooled_raises_at_interpreter_shutdown(monkeypatch):
    # Regression: the resize-retry loop used to swallow *every* RuntimeError
    # and spin forever; at interpreter shutdown no rebuild can ever succeed,
    # so the error must propagate (and after exactly one attempt).
    from repro.backend import parallel as par

    dead = _DeadExecutor("cannot schedule new futures after interpreter shutdown")
    monkeypatch.setattr(par, "_executor", lambda: dead)
    with pytest.raises(RuntimeError, match="interpreter shutdown"):
        par.submit_pooled(lambda: 1)
    assert dead.submits == 1


def test_parallel_map_raises_at_interpreter_shutdown(monkeypatch):
    from repro.backend import parallel as par

    dead = _DeadExecutor("cannot schedule new futures after interpreter shutdown")
    monkeypatch.setattr(par, "_executor", lambda: dead)
    with pytest.raises(RuntimeError, match="interpreter shutdown"):
        par.parallel_map(lambda i: i, range(4), op="shutdown")
    assert dead.submits == 1


def test_dead_pool_nobody_rebuilt_is_terminal_not_a_spin(monkeypatch):
    # A pool that is shut down *without* a concurrent resize re-resolves to
    # the same object; retrying would re-raise identically forever.  The
    # identity check must classify that as terminal.
    from repro.backend import parallel as par

    dead = _DeadExecutor("cannot schedule new futures after shutdown")
    monkeypatch.setattr(par, "_executor", lambda: dead)
    with pytest.raises(RuntimeError, match="after shutdown"):
        par.submit_pooled(lambda: 1)
    assert dead.submits == 1


def test_resize_mid_submit_retries_on_the_fresh_pool(monkeypatch):
    # The retryable half of the discipline: the stale pool raises, but the
    # next _executor() resolves to a live pool — submission must resume
    # there, not propagate.
    from repro.backend import parallel as par

    real = par._executor()
    dead = _DeadExecutor("cannot schedule new futures after shutdown")
    calls = iter([dead, real])
    monkeypatch.setattr(par, "_executor", lambda: next(calls, real))
    assert par.parallel_map(lambda i: i * 2, range(5), op="resize") == [
        0, 2, 4, 6, 8
    ]
    assert dead.submits == 1


# ---------------------------------------------------------------------------
# Worker sizing honours the scheduler affinity mask (cgroup/taskset limits)
# ---------------------------------------------------------------------------

def test_default_num_workers_uses_affinity_mask(monkeypatch):
    from repro.backend.parallel import default_num_workers

    monkeypatch.delenv("REPRO_NUM_WORKERS", raising=False)
    # A process pinned to 2 CPUs of a big host must get a 2-worker pool,
    # not a host-sized one.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert default_num_workers() == 2


def test_default_num_workers_falls_back_to_cpu_count(monkeypatch):
    from repro.backend.parallel import default_num_workers

    monkeypatch.delenv("REPRO_NUM_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert default_num_workers() == 5


def test_repro_num_workers_env_still_wins_over_affinity(monkeypatch):
    from repro.backend.parallel import default_num_workers

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setenv("REPRO_NUM_WORKERS", "7")
    assert default_num_workers() == 7


# ---------------------------------------------------------------------------
# KernelStats: exact totals under concurrent mutation
# ---------------------------------------------------------------------------

def test_kernel_stats_exact_totals_under_pool_hammer():
    stats = KernelStats()
    rounds = 400

    def hammer(i):
        stats.record(bytes_materialized=3, gemm_calls=2,
                     scatter_adds=1, conflicting_scatter_adds=1)
        if i % 10 == 0:
            stats.snapshot()  # concurrent reads must not tear

    with num_workers(4):
        parallel_map(hammer, range(rounds), op="stats-hammer")
    assert stats.bytes_materialized == 3 * rounds
    assert stats.gemm_calls == 2 * rounds
    assert stats.scatter_adds == rounds
    assert stats.conflicting_scatter_adds == rounds


def test_kernel_stats_merge_folds_deltas():
    total, delta = KernelStats(), KernelStats()
    delta.record(bytes_materialized=8, gemm_calls=1)
    total.merge(delta)
    total.merge(delta)
    assert total.bytes_materialized == 16 and total.gemm_calls == 2
    total.reset()
    assert total.snapshot() == KernelStats()


# ---------------------------------------------------------------------------
# Threaded backend: bitwise equality with numpy
# ---------------------------------------------------------------------------

CONV_CASES = [
    # (n, cin, hw, cout, kernel, stride, padding, groups)
    (4, 8, 10, 12, 3, 1, 1, 1),     # standard conv, padded
    (4, 8, 10, 12, 3, 1, 0, 1),     # standard conv, unpadded
    (4, 8, 10, 16, 3, 2, 1, 2),     # grouped, strided
    (3, 8, 9, 8, 3, 1, 1, 8),       # depthwise
    (3, 8, 11, 16, 5, 2, 2, 8),     # depthwise, strided, multiplier 2
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", CONV_CASES)
def test_conv2d_threaded_bitwise_equals_numpy(case, dtype):
    n, cin, hw, cout, kernel, stride, padding, groups = case
    rng = np.random.default_rng(5)
    x = rng.standard_normal((n, cin, hw, hw)).astype(dtype)
    w = rng.standard_normal((cout, cin // groups, kernel, kernel)).astype(dtype)
    plan = conv2d_plan(x.shape, w.shape, stride, padding, groups, x.dtype)
    out_np, ctx_np = get_kernel("conv2d", "numpy")(plan, x, w)
    out_th, ctx_th = get_kernel("conv2d", "threaded")(plan, x, w)
    assert np.array_equal(out_np, out_th)
    grad = rng.standard_normal(out_np.shape).astype(dtype)
    gx_np, gw_np = get_kernel("conv2d_backward", "numpy")(plan, ctx_np, grad)
    gx_th, gw_th = get_kernel("conv2d_backward", "threaded")(plan, ctx_th, grad)
    assert np.array_equal(gx_np, gx_th)
    assert np.array_equal(gw_np, gw_th)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("strategy,design", [
    ("channel_stack", None),
    ("conv_stack", None),
    ("dsxplore", "input_centric"),
    ("dsxplore", "output_centric"),
])
def test_scc_threaded_bitwise_equals_numpy_with_exact_stats(strategy, design, dtype):
    cfg = SCCConfig(16, 32, 4, 0.25)   # cyclic_dist > 1: real p-sharding
    plan = scc_plan(cfg)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((5, cfg.in_channels, 6, 6)).astype(dtype)
    w = rng.standard_normal((cfg.out_channels, cfg.group_width)).astype(dtype)
    kwargs = {"backward_design": design} if design else {}

    stats_np, stats_th = KernelStats(), KernelStats()
    out_np, sv_np = get_kernel("scc_forward", "numpy")(
        plan, x, w, strategy=strategy, stats=stats_np)
    out_th, sv_th = get_kernel("scc_forward", "threaded")(
        plan, x, w, strategy=strategy, stats=stats_th)
    assert np.array_equal(out_np, out_th)

    grad = rng.standard_normal(out_np.shape).astype(dtype)
    gx_np, gw_np = get_kernel("scc_backward", "numpy")(
        plan, sv_np, grad, strategy=strategy, stats=stats_np, **kwargs)
    gx_th, gw_th = get_kernel("scc_backward", "threaded")(
        plan, sv_th, grad, strategy=strategy, stats=stats_th, **kwargs)
    assert np.array_equal(gx_np, gx_th)
    assert np.array_equal(gw_np, gw_th)
    # Counters are backend-invariant (the gpusim crosscheck relies on it).
    assert stats_np.snapshot() == stats_th.snapshot()


def test_strategy_instances_on_threaded_backend_match_numpy():
    cfg = SCCConfig(8, 16, 2, 0.5)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 8, 5, 5)).astype(np.float32)
    w = rng.standard_normal((16, cfg.group_width)).astype(np.float32)
    grad = rng.standard_normal((3, 16, 5, 5)).astype(np.float32)
    for name in ("channel_stack", "conv_stack", "dsxplore"):
        fast = make_strategy(name, cfg, backend="threaded")
        base = make_strategy(name, cfg, backend="numpy")
        assert np.array_equal(fast.forward(x, w), base.forward(x, w))
        gx_t, gw_t = fast.backward(grad)
        gx_n, gw_n = base.backward(grad)
        assert np.array_equal(gx_t, gx_n) and np.array_equal(gw_t, gw_n)
        assert fast.stats.snapshot() == base.stats.snapshot()


def test_threaded_registered_for_every_core_op():
    for op in ("conv2d", "conv2d_backward", "scc_forward", "scc_backward",
               "maxpool2d", "maxpool2d_backward", "avgpool2d",
               "avgpool2d_backward"):
        assert "threaded" in available_backends(op), op


def test_unknown_scc_strategy_rejected_on_threaded():
    cfg = SCCConfig(8, 16, 2, 0.5)
    plan = scc_plan(cfg)
    x = np.zeros((1, 8, 2, 2), np.float32)
    w = np.zeros((16, cfg.group_width), np.float32)
    with pytest.raises(ValueError, match="unknown SCC strategy"):
        get_kernel("scc_forward", "threaded")(plan, x, w, strategy="warp")
    with pytest.raises(ValueError, match="backward_design"):
        get_kernel("scc_backward", "threaded")(
            plan, {"x": x, "w": w}, x, strategy="dsxplore",
            backward_design="sideways")


# ---------------------------------------------------------------------------
# Backend selection: REPRO_BACKEND override and unknown-name rejection
# ---------------------------------------------------------------------------

def test_env_backend_order_prepends_and_falls_through():
    assert env_backend_order(env="") == ("numpy", "reference")
    assert env_backend_order(env="default") == ("numpy", "reference")
    assert env_backend_order(env="threaded") == ("threaded", "numpy", "reference")
    assert env_backend_order(env="reference") == ("reference", "numpy")
    assert env_backend_order(env="numpy") == ("numpy", "reference")


def _resolve_in_subprocess(extra_env: dict) -> subprocess.CompletedProcess:
    code = ("from repro.backend import REGISTRY; "
            "print(REGISTRY.resolve_name('conv2d', 'default'))")
    env = dict(os.environ)
    env.update(extra_env)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, cwd=REPO_ROOT)


def test_repro_backend_env_selects_threaded():
    proc = _resolve_in_subprocess({"REPRO_BACKEND": "threaded"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "threaded"


def test_repro_backend_unknown_name_fails_at_import():
    # A typo must not silently run (and env-stamp) the default backend.
    proc = _resolve_in_subprocess({"REPRO_BACKEND": "threadd"})
    assert proc.returncode != 0
    assert "ValueError" in proc.stderr
    assert "'threadd' is not a registered backend" in proc.stderr
    assert "registered: ['numpy', 'reference'" in proc.stderr


# ---------------------------------------------------------------------------
# End-to-end: model forward/backward pinned to the threaded backend
# ---------------------------------------------------------------------------

def test_model_on_threaded_backend_bitwise_equals_numpy():
    from repro.models import build_model
    from repro.tensor import Tensor
    from repro.utils import seed_all

    outs, grads = [], []
    for backend in ("numpy", "threaded"):
        seed_all(11)
        model = build_model("mobilenet", scheme="scc", width_mult=0.25,
                            backend=backend, rng=np.random.default_rng(13))
        x = Tensor(np.random.default_rng(14).standard_normal(
            (4, 3, 16, 16)).astype(np.float32), requires_grad=True)
        out = model(x)
        out.sum().backward()
        outs.append(out.data)
        grads.append(x.grad)
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(grads[0], grads[1])


# ---------------------------------------------------------------------------
# Router overlap + gpusim parallel-efficiency plumbing
# ---------------------------------------------------------------------------

def test_router_overlapped_flush_matches_serial_results():
    from repro.models import build_serving_model
    from repro.serve import Router, ServingPolicy

    rng = np.random.default_rng(15)
    images = [rng.standard_normal((3, 12, 12)).astype(np.float32)
              for _ in range(12)]
    reference: dict[int, list[np.ndarray]] = {}
    for workers in (1, 2):   # serial drain, then models overlapped on the pool
        with num_workers(workers):
            router = Router(server_config=ServingPolicy(bucket_sizes=(1, 2, 4),
                                                        max_latency=60.0))
            for name, seed in (("a", 21), ("b", 22)):
                router.register(name, build_serving_model(
                    "mobilenet", width_mult=0.25, seed=seed),
                    input_shapes=[(3, 12, 12)])
            handles = [router.submit(("a", "b")[i % 2], img)
                       for i, img in enumerate(images)]
            router.flush()
        outs = [router.result(h).output for h in handles]
        assert all(o is not None for o in outs)
        reference[workers] = outs
    for serial_out, overlap_out in zip(reference[1], reference[2]):
        assert np.array_equal(serial_out, overlap_out)
