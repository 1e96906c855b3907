"""Training-mode batch normalisation on generated shapes.

The fused ``tensor.conv_ops.BatchNorm2d`` kernel is checked against the
textbook formulas evaluated in float64, over batch 1 and up, 1x1 and odd
spatial sizes (including one value per channel, ``m == 1``), 1-9 channels
and float32/float64 inputs; and ``nn.BatchNorm2d`` keeps PyTorch's running
statistics (unbiased running variance).
"""
import numpy as np
from hypothesis import given, settings
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
