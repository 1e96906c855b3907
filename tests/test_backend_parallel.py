"""The parallel worker pool, backend selection and run-to-run bits.

The pool runs the serving drains and gateway offloads; these tests pin its
mechanics (ordering, owner propagation, nested-inline execution, resize
and shutdown discipline, worker sizing), exact :class:`KernelStats` totals
under concurrent ``record``, the ``REPRO_BACKEND`` selection rules, and
that a model on the ``numpy`` backend gives the same bits from run to run.
"""
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.backend import (
    KernelRegistry,
    KernelStats,
    env_backend_order,
    get_num_workers,
    num_workers,
    parallel_map,
    set_num_workers,
)
from repro.backend.workload import current_plan_owner, plan_owner

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _pool():
    """Run this module's pool work at 3 workers, restoring the ambient size."""
    with num_workers(3):
        yield


# ---------------------------------------------------------------------------
# Pool mechanics
# ---------------------------------------------------------------------------

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
    stats.reset()
    assert stats.snapshot() == KernelStats()


# ---------------------------------------------------------------------------
# Backend selection: REPRO_BACKEND override and unknown-name rejection
# ---------------------------------------------------------------------------

def test_env_backend_order_prepends_and_falls_through():
    assert env_backend_order(env="") == ("numpy", "reference")
    assert env_backend_order(env="default") == ("numpy", "reference")
    assert env_backend_order(env="reference") == ("reference", "numpy")
    assert env_backend_order(env="numpy") == ("numpy", "reference")
    # Resolution falls through per op: reference registers no conv2d_fused,
    # so the prepended order still dispatches it to numpy.
    reg = KernelRegistry(env_backend_order(env="reference"))
    reg.register("conv2d", "numpy")(lambda: "np")
    reg.register("conv2d", "reference")(lambda: "ref")
    reg.register("conv2d_fused", "numpy")(lambda: "np-fused")
    assert reg.resolve_name("conv2d") == "reference"
    assert reg.resolve_name("conv2d_fused") == "numpy"


def _resolve_in_subprocess(extra_env: dict) -> subprocess.CompletedProcess:
    code = ("from repro.backend import REGISTRY; "
            "print(REGISTRY.resolve_name('conv2d', 'default'))")
    env = dict(os.environ)
    env.update(extra_env)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, cwd=REPO_ROOT)


def test_repro_backend_env_selects_reference():
    proc = _resolve_in_subprocess({"REPRO_BACKEND": "reference"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "reference"


def test_repro_backend_unknown_name_fails_at_import():
    # A typo must not silently run (and env-stamp) the default backend.
    proc = _resolve_in_subprocess({"REPRO_BACKEND": "threadd"})
    assert proc.returncode != 0
    assert "ValueError" in proc.stderr
    assert "'threadd' is not a registered backend" in proc.stderr
    assert "registered: ['numpy', 'reference'" in proc.stderr


# ---------------------------------------------------------------------------
# End-to-end: a numpy model forward/backward gives the same bits every run
# ---------------------------------------------------------------------------

def test_model_on_numpy_backend_is_bitwise_repeatable():
    from repro.models import build_model
    from repro.tensor import Tensor
    from repro.utils import seed_all

    outs, grads = [], []
    for _ in range(2):
        seed_all(11)
        model = build_model("mobilenet", scheme="scc", width_mult=0.25,
                            backend="numpy", rng=np.random.default_rng(13))
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
