"""The three SCC execution strategies must be numerically interchangeable.

This is the reproduction's core correctness claim: Pytorch-Base
(channel-stack), Pytorch-Opt (conv-stack + CC) and the fused DSXplore kernel
— with either backward design — compute the same function and the same
gradients (paper Section IV).
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import get_kernel, scc_plan
from repro.backend.reference import scc_forward_loops
from repro.core.channel_map import SCCConfig, channel_windows

from tests.helpers import run_scc

STRATEGY_NAMES = ("channel_stack", "conv_stack", "dsxplore")


def _rand(cfg: SCCConfig, n=2, h=4, w=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, cfg.in_channels, h, w)).astype(np.float32)
    wgt = rng.standard_normal((cfg.out_channels, cfg.group_width)).astype(np.float32)
    return x, wgt


CONFIGS = [
    SCCConfig(4, 8, 2, 0.5),
    SCCConfig(6, 12, 2, 1 / 3),
    SCCConfig(8, 16, 4, 0.5),
    SCCConfig(16, 16, 1, 0.0),    # PW corner
    SCCConfig(8, 8, 2, 0.0),      # GPW corner
    SCCConfig(12, 10, 3, 0.25),   # Cout not multiple of cd
    SCCConfig(8, 8, 8, 0.0),      # DW-width windows
    SCCConfig(16, 5, 4, 0.75),    # fewer filters than one cycle
]


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.label() + f"-{c.in_channels}x{c.out_channels}")
@pytest.mark.parametrize("name", STRATEGY_NAMES)
def test_forward_matches_reference(cfg, name):
    x, w = _rand(cfg)
    wins = channel_windows(cfg.in_channels, cfg.out_channels, cfg.cg, cfg.co)
    ref = scc_forward_loops(x, w, wins)
    out = run_scc(cfg, x, w, strategy=name)[0]
    np.testing.assert_allclose(out, ref, atol=1e-5)


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.label() + f"-{c.in_channels}x{c.out_channels}")
@pytest.mark.parametrize(
    "name,kwargs",
    [
        ("channel_stack", {}),
        ("conv_stack", {}),
        ("dsxplore", {"backward_design": "input_centric"}),
        ("dsxplore", {"backward_design": "output_centric"}),
    ],
)
def test_backward_matches_reference(cfg, name, kwargs):
    x, w = _rand(cfg, seed=3)
    wins = channel_windows(cfg.in_channels, cfg.out_channels, cfg.cg, cfg.co)
    out_shape = (x.shape[0], cfg.out_channels) + x.shape[2:]
    grad = np.random.default_rng(4).standard_normal(out_shape).astype(np.float32)
    _, gx, gw, _ = run_scc(cfg, x, w, grad, strategy=name, **kwargs)

    gw_ref = np.zeros_like(w)
    gx_ref = np.zeros_like(x)
    for o in range(cfg.out_channels):
        for k in range(cfg.group_width):
            gw_ref[o, k] = (grad[:, o] * x[:, wins[o, k]]).sum()
            gx_ref[:, wins[o, k]] += grad[:, o] * w[o, k]
    np.testing.assert_allclose(gw, gw_ref, rtol=2e-3, atol=1e-3)
    np.testing.assert_allclose(gx, gx_ref, rtol=2e-3, atol=1e-3)


def test_backward_partial_grads():
    cfg = SCCConfig(8, 8, 2, 0.5)
    x, w = _rand(cfg)
    _, gx, gw, _ = run_scc(cfg, x, w, 1.0, need_input_grad=False)
    assert gx is None and gw is not None
    _, gx, gw, _ = run_scc(cfg, x, w, 1.0, need_weight_grad=False)
    assert gx is not None and gw is None


def test_shape_validation():
    cfg = SCCConfig(8, 8, 2, 0.5)
    with pytest.raises(ValueError, match="expected input"):
        run_scc(cfg, np.zeros((1, 4, 2, 2), dtype=np.float32), np.zeros((8, 4), dtype=np.float32))
    with pytest.raises(ValueError, match="expected weight"):
        run_scc(cfg, np.zeros((1, 8, 2, 2), dtype=np.float32), np.zeros((8, 3), dtype=np.float32))


def test_unknown_strategy_rejected():
    cfg = SCCConfig(4, 4, 2, 0.5)
    x, w = _rand(cfg)
    with pytest.raises(ValueError, match="unknown SCC strategy"):
        run_scc(cfg, x, w, strategy="nope")


def test_unknown_backward_design_rejected():
    cfg = SCCConfig(4, 4, 2, 0.5)
    x, w = _rand(cfg)
    with pytest.raises(ValueError, match="backward_design"):
        run_scc(cfg, x, w, 1.0, backward_design="sideways")


@pytest.mark.parametrize("backend", ["numpy", "reference"])
def test_kernels_validate_every_call(backend):
    # Both backends run the one SCCPlan.check: a bad strategy name, backward
    # design or operand shape is a ValueError naming it, never an output or
    # a raw indexing/matmul error.
    cfg = SCCConfig(8, 8, 2, 0.5)
    x, w = _rand(cfg)
    plan = scc_plan(cfg)
    fwd = get_kernel("scc_forward", backend)
    bwd = get_kernel("scc_backward", backend)
    with pytest.raises(ValueError, match="unknown SCC strategy 'bogus'"):
        fwd(plan, x, w, strategy="bogus")
    with pytest.raises(ValueError, match=r"expected input \(N, 8, H, W\)"):
        fwd(plan, x[:, :4], w)
    with pytest.raises(ValueError, match=r"expected weight \(8, 4\)"):
        fwd(plan, x, w[:, :3])
    out, ctx = fwd(plan, x, w)
    with pytest.raises(ValueError, match="unknown SCC strategy 'bogus'"):
        bwd(plan, ctx, out, strategy="bogus")
    with pytest.raises(ValueError, match="backward_design.*'sideways'"):
        bwd(plan, ctx, out, backward_design="sideways")
    with pytest.raises(ValueError, match="expected grad_out"):
        bwd(plan, ctx, out[:, :4])


def test_channel_stack_materialises_duplicated_bytes():
    cfg = SCCConfig(8, 16, 2, 0.5)
    x, w = _rand(cfg)
    stats = run_scc(cfg, x, w, strategy="channel_stack")[3]
    # Stacked tensor: N * Cout * gw * H * W * 4 bytes.
    expected = 2 * 16 * 4 * 4 * 4 * 4
    assert stats.bytes_materialized == expected


def test_conv_stack_materialises_only_one_cycle():
    cfg = SCCConfig(8, 16, 2, 0.5)   # cd = 4
    x, w = _rand(cfg)
    stats = run_scc(cfg, x, w, strategy="conv_stack")[3]
    cd = scc_plan(cfg).cyclic_dist
    window_bytes = 2 * 4 * 4 * 4 * 4
    assert cd == 4
    assert stats.bytes_materialized == cd * window_bytes
    # CC optimisation: strictly less duplication than channel-stack.
    chs = run_scc(cfg, x, w, strategy="channel_stack")[3]
    assert stats.bytes_materialized < chs.bytes_materialized


def test_dsxplore_forward_materialises_nothing():
    cfg = SCCConfig(8, 16, 2, 0.5)
    x, w = _rand(cfg)
    stats = run_scc(cfg, x, w)[3]
    assert stats.bytes_materialized == 0


def test_input_centric_backward_has_no_scatter():
    cfg = SCCConfig(8, 16, 2, 0.5)
    x, w = _rand(cfg)
    pull = run_scc(cfg, x, w, 1.0, backward_design="input_centric")[3]
    assert pull.scatter_adds == 0

    push = run_scc(cfg, x, w, 1.0, backward_design="output_centric")[3]
    assert push.scatter_adds > 0
    assert push.conflicting_scatter_adds > 0


def test_atomic_reduction_exceeds_ninety_percent():
    # Paper Section V-D: input-centric removes >90% of atomic operations.
    cfg = SCCConfig(64, 128, 2, 0.5)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 64, 4, 4)).astype(np.float32)
    w = rng.standard_normal((128, 32)).astype(np.float32)
    g = np.ones((2, 128, 4, 4), dtype=np.float32)
    push = run_scc(cfg, x, w, g, backward_design="output_centric")[3]
    pull = run_scc(cfg, x, w, g, backward_design="input_centric")[3]
    assert pull.scatter_adds <= 0.1 * push.scatter_adds


def test_gemm_call_counts_follow_cycle_structure():
    cfg = SCCConfig(8, 16, 2, 0.5)   # cd=4, no wraparound splits at gw=4? some wrap
    x, w = _rand(cfg)
    cos = run_scc(cfg, x, w, strategy="conv_stack")[3]
    assert cos.gemm_calls == scc_plan(cfg).cyclic_dist
    chs = run_scc(cfg, x, w, strategy="channel_stack")[3]
    assert chs.gemm_calls == 1


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([4, 6, 8, 12, 16]),
    st.integers(1, 24),
    st.sampled_from([1, 2, 4]),
    st.sampled_from([0.0, 0.25, 0.5, 0.75]),
    st.integers(0, 10_000),
)
def test_strategies_agree_on_random_configs(cin, cout, cg, co, seed):
    if cin % cg:
        return
    cfg = SCCConfig(cin, cout, cg, co)
    x, w = _rand(cfg, n=1, h=3, w=3, seed=seed)
    outs = [run_scc(cfg, x, w, strategy=n)[0] for n in STRATEGY_NAMES]
    np.testing.assert_allclose(outs[0], outs[1], atol=1e-5)
    np.testing.assert_allclose(outs[0], outs[2], atol=1e-5)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_scc_is_linear_in_input(seed):
    # SCC is a linear operator in x for fixed w: f(ax+by) = af(x)+bf(y).
    cfg = SCCConfig(8, 12, 2, 0.5)
    rng = np.random.default_rng(seed)
    x1 = rng.standard_normal((2, 8, 3, 3)).astype(np.float32)
    x2 = rng.standard_normal((2, 8, 3, 3)).astype(np.float32)
    w = rng.standard_normal((12, 4)).astype(np.float32)
    lhs = run_scc(cfg, 2.0 * x1 + 3.0 * x2, w)[0]
    rhs = 2.0 * run_scc(cfg, x1, w)[0] + 3.0 * run_scc(cfg, x2, w)[0]
    np.testing.assert_allclose(lhs, rhs, atol=1e-4)
