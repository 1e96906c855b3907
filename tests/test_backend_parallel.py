"""The environment stamp, backend selection and run-to-run bits.

These tests pin the stamp's worker count (``REPRO_NUM_WORKERS``), exact
:class:`KernelStats` totals under concurrent ``record``, the
``REPRO_BACKEND`` selection rules, and that a model on the ``numpy``
backend gives the same bits from run to run.
"""
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.backend import KernelRegistry, KernelStats, env_backend_order, env_stamp

REPO_ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# The environment stamp's worker count: configuration only when pinned
# ---------------------------------------------------------------------------

def test_env_stamp_ignores_affinity_when_unpinned(monkeypatch):
    # Unpinned, the stamp must not echo a machine property (perfbench's
    # compare refuses runs whose stamps differ).
    monkeypatch.delenv("REPRO_NUM_WORKERS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    assert env_stamp()["num_workers"] is None


def test_env_stamp_records_pinned_num_workers(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setenv("REPRO_NUM_WORKERS", "7")
    assert env_stamp()["num_workers"] == 7


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

    with ThreadPoolExecutor(max_workers=4) as pool:
        list(pool.map(hammer, range(rounds)))
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
    # Resolution falls through per op: reference registers no numpy_only_op,
    # so the prepended order still dispatches it to numpy.
    reg = KernelRegistry(env_backend_order(env="reference"))
    reg.register("conv2d", "numpy")(lambda: "np")
    reg.register("conv2d", "reference")(lambda: "ref")
    reg.register("numpy_only_op", "numpy")(lambda: "np-only")
    assert reg.resolve_name("conv2d") == "reference"
    assert reg.resolve_name("numpy_only_op") == "numpy"


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
