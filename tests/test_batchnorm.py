"""Training-mode batch normalisation on generated shapes.

The fused ``tensor.conv_ops.BatchNorm2d`` kernel is checked against the
textbook formulas evaluated in float64, over batch 1 and up, 1x1 and odd
spatial sizes (including one value per channel, ``m == 1``), 1-9 channels
and float32/float64 inputs; ``nn.BatchNorm2d`` keeps PyTorch's running
statistics (unbiased running variance); and the BatchNorm+ReLU node that
``nn.bn_act`` runs in training matches BatchNorm followed by a separate
ReLU: output, all three gradients and the running statistics.
"""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import nn
from repro.tensor import Tensor
from repro.tensor.conv_ops import BatchNorm2d

TOL = {np.float32: dict(rtol=2e-4, atol=2e-4), np.float64: dict(rtol=1e-9, atol=1e-9)}


def textbook_bn(x, gamma, beta, grad, eps=1e-5):
    """Forward output and the three gradients, in float64."""
    x, gamma, beta, grad = (np.asarray(a, dtype=np.float64) for a in (x, gamma, beta, grad))
    axes = (0, 2, 3)
    mean = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv_std
    out = gamma.reshape(1, -1, 1, 1) * xhat + beta.reshape(1, -1, 1, 1)
    m = grad.shape[0] * grad.shape[2] * grad.shape[3]
    grad_gamma = (grad * xhat).sum(axis=axes)
    grad_beta = grad.sum(axis=axes)
    g = grad * gamma.reshape(1, -1, 1, 1)
    grad_x = inv_std / m * (
        m * g
        - g.sum(axis=axes, keepdims=True)
        - xhat * (g * xhat).sum(axis=axes, keepdims=True)
    )
    return out, grad_x, grad_gamma, grad_beta


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 4),
    c=st.integers(1, 9),
    h=st.sampled_from([1, 1, 2, 3, 5, 7]),
    w=st.sampled_from([1, 1, 3, 4, 5]),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**16),
)
# Two values per channel: float32 grad-input cancels (tiny reductions run in
# float64 for this reason).
@example(n=2, c=5, h=1, w=1, dtype=np.float32, seed=368)
def test_training_bn_matches_textbook_float64(n, c, h, w, dtype, seed):
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal((n, c, h, w)) * 3 + rng.standard_normal(c)[:, None, None]).astype(dtype)
    gamma = rng.standard_normal(c).astype(dtype)
    beta = rng.standard_normal(c).astype(dtype)
    grad = rng.standard_normal((n, c, h, w)).astype(dtype)

    fn = BatchNorm2d()
    out = fn.forward(x, gamma, beta)
    fn.needs_input_grad = (True, True, True)
    grad_x, grad_gamma, grad_beta = fn.backward(grad)

    want = textbook_bn(x, gamma, beta, grad)
    for got, ref in zip((out, grad_x, grad_gamma, grad_beta), want):
        assert got.dtype == dtype and got.shape == ref.shape
        np.testing.assert_allclose(got, ref, **TOL[dtype])
    assert fn.batch_mean.shape == (c,) and fn.batch_var.shape == (c,)
    np.testing.assert_allclose(fn.batch_mean, x.mean(axis=(0, 2, 3), dtype=np.float64), **TOL[dtype])
    np.testing.assert_allclose(fn.batch_var, x.var(axis=(0, 2, 3), dtype=np.float64), **TOL[dtype])


def test_running_var_is_unbiased_after_one_step():
    mom = 0.1
    bn = nn.BatchNorm2d(3, momentum=mom)
    x = (np.random.default_rng(4).standard_normal((4, 3, 5, 5)) * 2 + 1).astype(np.float32)
    bn(Tensor(x))
    np.testing.assert_allclose(
        bn.running_var, (1 - mom) * 1.0 + mom * x.var(axis=(0, 2, 3), ddof=1), rtol=1e-5
    )
    np.testing.assert_allclose(
        bn.running_mean, mom * x.mean(axis=(0, 2, 3)), rtol=1e-5, atol=1e-7
    )


def test_running_var_with_one_value_per_channel_stays_finite():
    bn = nn.BatchNorm2d(2, momentum=0.5)
    out = bn(Tensor(np.array([[[[3.0]], [[-1.0]]]], dtype=np.float32)))
    assert np.all(np.isfinite(out.data))
    np.testing.assert_array_equal(bn.running_var, [0.5, 0.5])


def test_bn_module_records_its_node_for_backward():
    bn = nn.BatchNorm2d(3)
    x = Tensor(np.random.default_rng(2).standard_normal((2, 3, 3, 3)), requires_grad=True)
    out = bn(x)
    assert isinstance(out._ctx, BatchNorm2d)
    out.sum().backward()
    assert x.grad.shape == x.shape
    assert bn.weight.grad.shape == (3,) and bn.bias.grad.shape == (3,)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    c=st.integers(1, 6),
    h=st.sampled_from([1, 1, 2, 3, 5]),
    w=st.sampled_from([1, 1, 3, 4]),
    dtype=st.sampled_from([np.float32, np.float64]),
    negative=st.sets(st.integers(0, 5)),
    seed=st.integers(0, 2**16),
)
@example(n=1, c=3, h=1, w=1, dtype=np.float32, negative={1}, seed=0)     # m == 1
@example(n=2, c=4, h=3, w=3, dtype=np.float32, negative={0, 1, 2, 3}, seed=5)
def test_bn_relu_node_matches_bn_then_relu(n, c, h, w, dtype, negative, seed):
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal((n, c, h, w)) * 3 + rng.standard_normal(c)[:, None, None]).astype(dtype)
    gamma = rng.standard_normal(c).astype(dtype)
    beta = rng.standard_normal(c).astype(dtype)
    for ch in negative & set(range(c)):
        # Every output of this channel is negative: the ReLU zeroes it all.
        gamma[ch] = 0.1
        beta[ch] = -10.0
    upstream = rng.standard_normal((n, c, h, w)).astype(dtype)

    def run(fused):
        bn = nn.BatchNorm2d(c)
        bn.weight.data, bn.bias.data = gamma.copy(), beta.copy()
        xt = Tensor(x.copy(), requires_grad=True)
        out = nn.bn_act(bn, nn.ReLU(), xt) if fused else bn(xt).relu()
        assert isinstance(out._ctx, BatchNorm2d) == fused
        (out * Tensor(upstream)).sum().backward()
        return (out.data, xt.grad, bn.weight.grad, bn.bias.grad,
                bn.running_mean, bn.running_var)

    for got, want in zip(run(True), run(False)):
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_allclose(got, want, **TOL[dtype])
    out = run(True)[0]
    for ch in negative & set(range(c)):
        assert not out[:, ch].any()


def test_bn_act_composes_outside_training_or_with_hooks():
    """In training a BatchNorm2d + ReLU pair is one BatchNorm node; a
    non-ReLU activation, a hooked module and eval mode run the two modules
    as before."""
    x = Tensor(np.random.default_rng(1).standard_normal((2, 3, 4, 4)).astype(np.float32))
    bn, act = nn.BatchNorm2d(3), nn.ReLU()
    assert isinstance(nn.bn_act(bn, act, x)._ctx, BatchNorm2d)
    assert not isinstance(nn.bn_act(bn, nn.ReLU6(), x)._ctx, BatchNorm2d)
    seen = []
    handle = act.register_forward_hook(lambda mod, args, out: seen.append(out.shape))
    assert not isinstance(nn.bn_act(bn, act, x)._ctx, BatchNorm2d) and seen
    handle.remove()
    bn.eval()
    np.testing.assert_array_equal(nn.bn_act(bn, act, x).data, act(bn(x)).data)
