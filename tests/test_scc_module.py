"""SlidingChannelConv2d autograd integration tests."""
import numpy as np
import pytest

from repro.backend import backend_override
from repro.backend.reference import scc_backward_loops, scc_forward_loops
from repro.core.channel_map import channel_windows
from repro.core.scc import SCCFunction, SlidingChannelConv2d
from repro.tensor import Tensor
from repro.utils import seed_all

from tests.helpers import assert_grad_close, numerical_grad, run_scc


@pytest.fixture(autouse=True)
def _seed():
    seed_all(41)


def test_forward_shape_and_bias():
    layer = SlidingChannelConv2d(8, 16, cg=2, co=0.5)
    x = Tensor(np.zeros((2, 8, 5, 5), dtype=np.float32))
    out = layer(x)
    assert out.shape == (2, 16, 5, 5)
    np.testing.assert_allclose(
        out.data, np.broadcast_to(layer.bias.data.reshape(1, -1, 1, 1), out.shape), atol=1e-6
    )


def test_weight_shape_is_group_width():
    layer = SlidingChannelConv2d(16, 32, cg=4, co=0.25, bias=False)
    assert layer.weight.shape == (32, 4)
    assert layer.num_parameters() == 128


@pytest.mark.parametrize("impl", ["channel_stack", "conv_stack", "dsxplore"])
def test_gradcheck_all_impls(impl):
    rng = np.random.default_rng(0)
    x_data = rng.standard_normal((2, 6, 3, 3)).astype(np.float64)
    layer = SlidingChannelConv2d(6, 9, cg=3, co=0.5, bias=True, impl=impl)
    w_data = layer.weight.data.astype(np.float64)
    b_data = layer.bias.data.astype(np.float64)

    x = Tensor(x_data, requires_grad=True)
    out = layer(x)
    (out * out).sum().backward()

    wins = channel_windows(6, 9, 3, 0.5)

    def loss():
        o = np.zeros((2, 9, 3, 3))
        for oid in range(9):
            for k in range(wins.shape[1]):
                o[:, oid] += w_data[oid, k] * x_data[:, wins[oid, k]]
            o[:, oid] += b_data[oid]
        return float((o**2).sum())

    assert_grad_close(x.grad, numerical_grad(loss, x_data), name=f"{impl}/x")
    assert_grad_close(layer.weight.grad, numerical_grad(loss, w_data), name=f"{impl}/w")
    assert_grad_close(layer.bias.grad, numerical_grad(loss, b_data), name=f"{impl}/b")


def test_output_centric_backward_grads_match_input_centric():
    rng = np.random.default_rng(1)
    x_data = rng.standard_normal((2, 8, 4, 4)).astype(np.float32)
    grads = {}
    for design in ("input_centric", "output_centric"):
        seed_all(5)
        layer = SlidingChannelConv2d(8, 16, cg=2, co=0.5, impl="dsxplore",
                                     backward_design=design, bias=False)
        x = Tensor(x_data.copy(), requires_grad=True)
        (layer(x) ** 2).sum().backward()
        grads[design] = (x.grad.copy(), layer.weight.grad.copy())
    np.testing.assert_allclose(grads["input_centric"][0], grads["output_centric"][0], rtol=1e-4, atol=1e-4)
    np.testing.assert_allclose(grads["input_centric"][1], grads["output_centric"][1], rtol=1e-4, atol=1e-4)


def test_reentrant_double_forward_then_backward():
    # Two forward calls through the same layer before backward: each call's
    # kernel context lives on its own Function node, so neither is clobbered.
    for design in ("input_centric", "output_centric"):
        layer = SlidingChannelConv2d(4, 4, cg=2, co=0.5, bias=False,
                                     backward_design=design)
        rng = np.random.default_rng(2)
        x1 = Tensor(rng.standard_normal((1, 4, 3, 3)).astype(np.float32), requires_grad=True)
        x2 = Tensor(rng.standard_normal((1, 4, 3, 3)).astype(np.float32), requires_grad=True)
        out = (layer(x1) * layer(x2)).sum()
        out.backward()
        assert x1.grad is not None and x2.grad is not None
        # d/dx1 sum(f(x1)*f(x2)) where f linear: grad_x1 = f^T(f(x2)); nonzero.
        assert np.abs(x1.grad).max() > 0
        assert np.abs(x2.grad).max() > 0
        # ... and equal to the loop VJPs: each node kept its own input.
        w, wins = layer.weight.data, layer.plan.windows
        f1, f2 = (scc_forward_loops(x.data, w, wins) for x in (x1, x2))
        gx1, gw1 = scc_backward_loops(f2, x1.data, w, wins)
        gx2, gw2 = scc_backward_loops(f1, x2.data, w, wins)
        np.testing.assert_allclose(x1.grad, gx1, rtol=1e-5, atol=1e-5, err_msg=design)
        np.testing.assert_allclose(x2.grad, gx2, rtol=1e-5, atol=1e-5, err_msg=design)
        np.testing.assert_allclose(layer.weight.grad, gw1 + gw2, rtol=1e-5,
                                   atol=1e-5, err_msg=design)


@pytest.mark.parametrize("impl,design", [
    ("channel_stack", "input_centric"),
    ("conv_stack", "input_centric"),
    ("dsxplore", "input_centric"),
    ("dsxplore", "output_centric"),
])
def test_autograd_bitwise_equals_direct_kernel_calls(impl, design):
    layer = SlidingChannelConv2d(12, 10, cg=3, co=0.25, bias=False, impl=impl,
                                 backward_design=design)
    rng = np.random.default_rng(6)
    x_data = rng.standard_normal((2, 12, 5, 3)).astype(np.float32)
    grad = rng.standard_normal((2, 10, 5, 3)).astype(np.float32)
    x = Tensor(x_data, requires_grad=True)
    with backend_override("numpy"):
        out = layer(x)
        out.backward(grad)
    want_out, want_gx, want_gw, want_stats = run_scc(
        layer.config, x_data, layer.weight.data, grad, impl, design,
        backend="numpy",
    )
    assert np.array_equal(out.data, want_out)
    assert np.array_equal(x.grad, want_gx)
    assert np.array_equal(layer.weight.grad, want_gw)
    assert layer.stats == want_stats


def test_same_math_across_impls_same_weights():
    seed_all(9)
    ref = SlidingChannelConv2d(8, 12, cg=2, co=0.5, impl="dsxplore")
    x = Tensor(np.random.default_rng(3).standard_normal((2, 8, 4, 4)).astype(np.float32))
    out_ref = ref(x).data.copy()
    for impl in ("channel_stack", "conv_stack"):
        ref.set_impl(impl)
        np.testing.assert_allclose(ref(x).data, out_ref, atol=1e-5)
    ref.set_impl("dsxplore", backward_design="output_centric")
    np.testing.assert_allclose(ref(x).data, out_ref, atol=1e-5)
    assert ref.backward_design == "output_centric"


def test_invalid_configuration_raises_at_construction():
    with pytest.raises(ValueError):
        SlidingChannelConv2d(10, 4, cg=4, co=0.5)   # cg does not divide Cin
    with pytest.raises(ValueError):
        SlidingChannelConv2d(8, 4, cg=2, co=1.0)    # co out of range
    with pytest.raises(ValueError, match="unknown SCC strategy"):
        SlidingChannelConv2d(8, 4, cg=2, co=0.5, impl="magic")


def test_function_requires_strategy():
    # The plan and the strategy name (``impl``) are required arguments.
    with pytest.raises(TypeError, match="'plan', 'impl'"):
        SCCFunction.apply(Tensor(np.zeros((1, 4, 2, 2))), Tensor(np.zeros((4, 2))))


def test_cyclic_dist_property():
    layer = SlidingChannelConv2d(8, 16, cg=2, co=0.5)
    # group_width 4, overlap 2 -> stride 2; period = 8/gcd(2,8) = 4.
    assert layer.cyclic_dist == 4
    from repro.core.channel_map import cyclic_distance

    assert layer.cyclic_dist == cyclic_distance(8, 2, 0.5, 16)


def test_repr_mentions_config():
    text = repr(SlidingChannelConv2d(8, 16, cg=2, co=0.5))
    assert "cg=2" in text and "co=0.50" in text
