"""Dtype preservation and KernelStats invariants across backends.

Two classes of guarantee:

- **dtype**: float32 inputs stay float32 through forward and both backward
  paths of every SCC strategy and of conv2d — no silent float64 promotion
  (the classic NumPy footgun that would double memory traffic and invalidate
  the byte accounting);
- **stats**: the instrumentation counters agree with both the strategy
  definitions (the dsxplore forward materialises 0 bytes, the input-centric
  backward issues 0 scatter updates) and the gpusim analytic kernel model
  (:mod:`repro.gpusim.crosscheck`).  These tests name the ``numpy``
  backend: the ``reference`` kernels count nothing, so they hold under any
  ``REPRO_BACKEND``.
"""
import numpy as np
import pytest

from repro.backend import KernelStats, get_kernel, scc_plan
from repro.backend.reference import scc_forward_loops
from repro.core.channel_map import SCCConfig, channel_windows
from repro.gpusim import crosscheck_all, crosscheck_scc_stats

from tests.helpers import run_scc

CONFIGS = [
    SCCConfig(8, 16, 2, 0.5),
    SCCConfig(12, 10, 3, 0.25),   # Cout not a multiple of cyclic_dist
    SCCConfig(16, 16, 1, 0.0),    # PW corner
]

STRATEGY_COMBOS = [
    ("channel_stack", {}),
    ("conv_stack", {}),
    ("dsxplore", {"backward_design": "input_centric"}),
    ("dsxplore", {"backward_design": "output_centric"}),
]


def _rand32(cfg, n=2, hw=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, cfg.in_channels, hw, hw)).astype(np.float32)
    w = rng.standard_normal((cfg.out_channels, cfg.group_width)).astype(np.float32)
    return x, w


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.label())
@pytest.mark.parametrize("name,kwargs", STRATEGY_COMBOS,
                         ids=["chs", "cos", "dsx-pull", "dsx-push"])
def test_float32_preserved_and_matches_reference(cfg, name, kwargs):
    x, w = _rand32(cfg)
    out_shape = (x.shape[0], cfg.out_channels) + x.shape[2:]
    grad = np.random.default_rng(1).standard_normal(out_shape).astype(np.float32)
    out, gx, gw, _ = run_scc(cfg, x, w, grad, strategy=name, **kwargs)
    assert out.dtype == np.float32, f"{name} forward promoted to {out.dtype}"
    wins = channel_windows(cfg.in_channels, cfg.out_channels, cfg.cg, cfg.co)
    ref = scc_forward_loops(x, w, wins)
    assert ref.dtype == np.float32
    np.testing.assert_allclose(out, ref, atol=1e-5)
    assert gx.dtype == np.float32, f"{name} grad_x promoted to {gx.dtype}"
    assert gw.dtype == np.float32, f"{name} grad_w promoted to {gw.dtype}"


@pytest.mark.parametrize("backend", ["numpy", "reference"])
def test_conv2d_float32_preserved(backend):
    from repro.backend import conv2d_plan, get_kernel

    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 4, 6, 6)).astype(np.float32)
    w = rng.standard_normal((6, 2, 3, 3)).astype(np.float32)
    plan = conv2d_plan(x.shape, w.shape, 1, 1, 2, x.dtype)
    out, ctx = get_kernel("conv2d", backend)(plan, x, w)
    assert out.dtype == np.float32
    gx, gw = get_kernel("conv2d_backward", backend)(
        plan, ctx, out.astype(np.float32)
    )
    assert gx.dtype == np.float32 and gw.dtype == np.float32


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.label())
def test_dsxplore_forward_materializes_zero_bytes(cfg):
    x, w = _rand32(cfg)
    stats = run_scc(cfg, x, w, backend="numpy")[3]
    assert stats.bytes_materialized == 0
    assert stats.scatter_adds == 0


def test_input_centric_no_scatter_output_centric_scatters():
    cfg = SCCConfig(8, 16, 2, 0.5)
    x, w = _rand32(cfg)
    pull, push = (
        run_scc(cfg, x, w, 1.0, backward_design=design, backend="numpy")[3]
        for design in ("input_centric", "output_centric")
    )
    assert pull.scatter_adds == 0
    assert push.scatter_adds > 0
    assert push.conflicting_scatter_adds > 0


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.label())
def test_measured_stats_match_gpusim_analytic_model(cfg):
    """The registry-dispatched kernels and the simulator agree (crosscheck)."""
    for result in crosscheck_all(cfg, batch=2, hw=4, backend="numpy"):
        assert result.ok, (
            f"{result.strategy}/{result.backward_design}: {result.failures()}"
        )


def test_crosscheck_channel_stack_atomics_scale_with_batch():
    cfg = SCCConfig(8, 16, 2, 0.5)
    r2 = crosscheck_scc_stats(cfg, batch=2, strategy="channel_stack", backend="numpy")
    r4 = crosscheck_scc_stats(cfg, batch=4, strategy="channel_stack", backend="numpy")
    assert r2.ok and r4.ok
    assert r4.checks["atomic_ops"][0] == 2 * r2.checks["atomic_ops"][0]


def test_stats_reset_between_forward_calls():
    cfg = SCCConfig(8, 16, 2, 0.5)
    x, w = _rand32(cfg)
    fwd, stats = get_kernel("scc_forward", "numpy"), KernelStats()
    fwd(scc_plan(cfg), x, w, strategy="channel_stack", stats=stats)
    first = stats.snapshot()
    stats.reset()
    fwd(scc_plan(cfg), x, w, strategy="channel_stack", stats=stats)
    assert stats.bytes_materialized == first.bytes_materialized
    assert stats.gemm_calls == first.gemm_calls
