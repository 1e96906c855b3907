"""Unit tests: elementwise / reduction / movement ops and their VJPs."""
import numpy as np
import pytest

from repro.tensor import Tensor, tensor, zeros, ones, randn
from repro.tensor.tensor import cat
from repro.utils import pad2d, seed_all

from tests.helpers import assert_grad_close, numerical_grad


@pytest.fixture(autouse=True)
def _seed():
    seed_all(123)


def _check_unary(op, np_op, shape=(3, 4), positive=False):
    x_data = np.random.default_rng(0).standard_normal(shape).astype(np.float32)
    if positive:
        x_data = np.abs(x_data) + 0.5
    x = Tensor(x_data.copy(), requires_grad=True)
    out = op(x)
    np.testing.assert_allclose(out.data, np_op(x_data), rtol=1e-5)
    out.sum().backward()

    x64 = x_data.astype(np.float64)
    num = numerical_grad(lambda: float(np_op(x64).sum()), x64)
    assert_grad_close(x.grad, num, name=np_op.__name__)


def test_exp():
    _check_unary(lambda t: t.exp(), np.exp)


def test_log():
    _check_unary(lambda t: t.log(), np.log, positive=True)


def test_relu():
    _check_unary(lambda t: t.relu(), lambda a: np.maximum(a, 0.0))


def test_sqrt():
    _check_unary(lambda t: t.sqrt(), np.sqrt, positive=True)


def test_neg():
    _check_unary(lambda t: -t, lambda a: -a)


def test_pow():
    _check_unary(lambda t: t**3.0, lambda a: a**3.0)


@pytest.mark.parametrize(
    "shape_a,shape_b",
    [((3, 4), (3, 4)), ((3, 4), (4,)), ((3, 1), (1, 4)), ((2, 3, 4), (4,)), ((5,), ())],
)
def test_binary_broadcast_grads(shape_a, shape_b):
    rng = np.random.default_rng(1)
    a_data = np.asarray(rng.standard_normal(shape_a), dtype=np.float64)
    b_data = np.asarray(rng.standard_normal(shape_b) + 2.0, dtype=np.float64)

    for op, np_op in [
        (lambda x, y: x + y, np.add),
        (lambda x, y: x - y, np.subtract),
        (lambda x, y: x * y, np.multiply),
        (lambda x, y: x / y, np.divide),
    ]:
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        out = op(a, b)
        np.testing.assert_allclose(out.data, np_op(a_data, b_data).astype(np.float32), rtol=1e-5)
        out.sum().backward()
        na = numerical_grad(lambda: float(np_op(a_data, b_data).sum()), a_data)
        nb = numerical_grad(lambda: float(np_op(a_data, b_data).sum()), b_data)
        assert a.grad.shape == a_data.shape
        assert b.grad.shape == b_data.shape
        assert_grad_close(a.grad, na, name=f"{np_op.__name__}/a")
        assert_grad_close(b.grad, nb, name=f"{np_op.__name__}/b")


def test_scalar_operand_wrapping():
    x = Tensor([1.0, 2.0], requires_grad=True)
    out = (2.0 * x + 1.0) / 2.0 - 0.5
    np.testing.assert_allclose(out.data, [1.0, 2.0])
    out.sum().backward()
    np.testing.assert_allclose(x.grad, [1.0, 1.0])


def test_rsub_rdiv():
    x = Tensor([2.0, 4.0], requires_grad=True)
    np.testing.assert_allclose((1.0 - x).data, [-1.0, -3.0])
    np.testing.assert_allclose((8.0 / x).data, [4.0, 2.0])


def test_matmul_2d():
    rng = np.random.default_rng(2)
    a_data = rng.standard_normal((3, 5)).astype(np.float64)
    b_data = rng.standard_normal((5, 2)).astype(np.float64)
    a = Tensor(a_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    out = a @ b
    np.testing.assert_allclose(out.data, (a_data @ b_data).astype(np.float32), rtol=1e-5)
    (out * out).sum().backward()
    na = numerical_grad(lambda: float(((a_data @ b_data) ** 2).sum()), a_data)
    nb = numerical_grad(lambda: float(((a_data @ b_data) ** 2).sum()), b_data)
    assert_grad_close(a.grad, na, name="matmul/a")
    assert_grad_close(b.grad, nb, name="matmul/b")


def test_matmul_batched():
    rng = np.random.default_rng(3)
    a_data = rng.standard_normal((4, 3, 5)).astype(np.float64)
    b_data = rng.standard_normal((5, 2)).astype(np.float64)
    a = Tensor(a_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    out = a @ b
    assert out.shape == (4, 3, 2)
    out.sum().backward()
    nb = numerical_grad(lambda: float((a_data @ b_data).sum()), b_data)
    assert_grad_close(b.grad, nb, name="batched-matmul/b")
    assert a.grad.shape == a_data.shape


@pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True), ((0, 2), False)])
def test_sum_mean(axis, keepdims):
    rng = np.random.default_rng(4)
    x_data = rng.standard_normal((2, 3, 4)).astype(np.float64)
    for tensor_op, np_op in [
        (lambda t: t.sum(axis=axis, keepdims=keepdims), lambda a: a.sum(axis=axis, keepdims=keepdims)),
        (lambda t: t.mean(axis=axis, keepdims=keepdims), lambda a: a.mean(axis=axis, keepdims=keepdims)),
    ]:
        x = Tensor(x_data, requires_grad=True)
        out = tensor_op(x)
        np.testing.assert_allclose(out.data, np_op(x_data).astype(np.float32), rtol=1e-5)
        (out * out).sum().backward()
        num = numerical_grad(lambda: float((np_op(x_data) ** 2).sum()), x_data)
        assert_grad_close(x.grad, num, name="sum/mean")


@pytest.mark.parametrize("axis,keepdims", [(None, False), (1, False), (2, True)])
def test_max(axis, keepdims):
    rng = np.random.default_rng(5)
    x_data = rng.standard_normal((3, 4, 5)).astype(np.float64)
    x = Tensor(x_data, requires_grad=True)
    out = x.max(axis=axis, keepdims=keepdims)
    np.testing.assert_allclose(out.data, x_data.max(axis=axis, keepdims=keepdims).astype(np.float32))
    out.sum().backward()
    num = numerical_grad(lambda: float(x_data.max(axis=axis, keepdims=keepdims).sum()), x_data, eps=1e-6)
    assert_grad_close(x.grad, num, name="max")


def test_max_tie_splits_gradient():
    x = Tensor(np.array([[1.0, 1.0, 0.0]]), requires_grad=True)
    x.max().backward()
    np.testing.assert_allclose(x.grad, [[0.5, 0.5, 0.0]])


def test_reshape_transpose_roundtrip():
    rng = np.random.default_rng(6)
    x_data = rng.standard_normal((2, 3, 4)).astype(np.float32)
    x = Tensor(x_data, requires_grad=True)
    out = x.reshape(6, 4).transpose(1, 0).reshape(-1)
    assert out.shape == (24,)
    (out * out).sum().backward()
    np.testing.assert_allclose(x.grad, 2 * x_data, rtol=1e-5)


def test_transpose_default_reverses():
    x = Tensor(np.zeros((2, 3, 4)))
    assert x.transpose().shape == (4, 3, 2)


def test_getitem_grad_scatter():
    x = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4), requires_grad=True)
    out = x[1]
    out.sum().backward()
    expected = np.zeros((3, 4), dtype=np.float32)
    expected[1] = 1.0
    np.testing.assert_allclose(x.grad, expected)


def test_getitem_repeated_index_accumulates():
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    idx = np.array([0, 0, 2])
    out = x[idx]
    out.sum().backward()
    np.testing.assert_allclose(x.grad, [2.0, 0.0, 1.0])


def test_concat_forward_backward():
    a = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    b = Tensor(2 * np.ones((2, 3), dtype=np.float32), requires_grad=True)
    out = cat([a, b], axis=1)
    assert out.shape == (2, 5)
    (out * Tensor(np.arange(10, dtype=np.float32).reshape(2, 5))).sum().backward()
    np.testing.assert_allclose(a.grad, [[0, 1], [5, 6]])
    np.testing.assert_allclose(b.grad, [[2, 3, 4], [7, 8, 9]])


def test_pad2d():
    x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32), requires_grad=True)
    out = x.pad2d(1)
    assert out.shape == (1, 1, 4, 4)
    assert float(out.data.sum()) == 4.0
    out.sum().backward()
    np.testing.assert_allclose(x.grad, np.ones((1, 1, 2, 2)))


def test_pad2d_zero_is_identity():
    x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32), requires_grad=True)
    out = x.pad2d(0)
    assert out.shape == x.shape
    out.sum().backward()
    np.testing.assert_allclose(x.grad, np.ones_like(x.data))


@pytest.mark.parametrize("shape", [(5, 7), (2, 3, 4), (2, 3, 6, 5)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("fill", [0, -np.inf])
@pytest.mark.parametrize("padding", [1, 2])
def test_array_pad2d_equals_np_pad(shape, dtype, fill, padding):
    x = np.random.default_rng(1).standard_normal(shape).astype(dtype)
    width = [(0, 0)] * (x.ndim - 2) + [(padding, padding)] * 2
    want = np.pad(x, width, constant_values=fill)
    got = pad2d(x, padding, fill=fill)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert pad2d(x, 0, fill=fill) is x


def test_constructors():
    assert zeros(2, 3).shape == (2, 3)
    assert float(ones(4).data.sum()) == 4.0
    assert randn(2, 2).shape == (2, 2)
    assert tensor([1, 2]).dtype == np.float32
