"""Elementwise, reduction and movement ops with their VJPs.

Each op is a :class:`~repro.tensor.function.Function`; forwards operate on raw
ndarrays.  Binary ops support full NumPy broadcasting; the backward pass
reduces gradients back with :func:`~repro.tensor.function.unbroadcast`.
"""
from __future__ import annotations

from typing import Any

import numpy as np

from repro.tensor.function import Function, unbroadcast
from repro.utils.pad import pad2d


class Add(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.save_for_backward(a.shape, b.shape)
        return a + b

    def backward(self, grad: np.ndarray):
        a_shape, b_shape = self.saved
        return unbroadcast(grad, a_shape), unbroadcast(grad, b_shape)


class Sub(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.save_for_backward(a.shape, b.shape)
        return a - b

    def backward(self, grad: np.ndarray):
        a_shape, b_shape = self.saved
        return unbroadcast(grad, a_shape), unbroadcast(-grad, b_shape)


class Mul(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.save_for_backward(a, b)
        return a * b

    def backward(self, grad: np.ndarray):
        a, b = self.saved
        return unbroadcast(grad * b, a.shape), unbroadcast(grad * a, b.shape)


class Div(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.save_for_backward(a, b)
        return a / b

    def backward(self, grad: np.ndarray):
        a, b = self.saved
        ga = unbroadcast(grad / b, a.shape)
        gb = unbroadcast(-grad * a / (b * b), b.shape)
        return ga, gb


class Neg(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        return -a

    def backward(self, grad: np.ndarray):
        return (-grad,)


class Pow(Function):
    def forward(self, a: np.ndarray, exponent: float) -> np.ndarray:
        self.exponent = exponent
        self.save_for_backward(a)
        return a**exponent

    def backward(self, grad: np.ndarray):
        (a,) = self.saved
        return (grad * self.exponent * a ** (self.exponent - 1),)


class Exp(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        out = np.exp(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad: np.ndarray):
        (out,) = self.saved
        return (grad * out,)


class Log(Function):
    def forward(self, a: np.ndarray) -> np.ndarray:
        self.save_for_backward(a)
        return np.log(a)

    def backward(self, grad: np.ndarray):
        (a,) = self.saved
        return (grad / a,)


class ReLU(Function):
    """``max(a, 0)``.  Backward multiplies by the saved boolean mask: on a
    random half-positive mask, ``np.where`` and ``copyto(where=)`` took
    about 10x as long, and a float mask cost more to build than it saved."""

    def forward(self, a: np.ndarray) -> np.ndarray:
        self.save_for_backward(a > 0)
        return np.maximum(a, 0)

    def backward(self, grad: np.ndarray):
        (mask,) = self.saved
        return (grad * mask,)


class MatMul(Function):
    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.save_for_backward(a, b)
        return a @ b

    def backward(self, grad: np.ndarray):
        a, b = self.saved
        if a.ndim == 2 and b.ndim == 2:
            return grad @ b.T, a.T @ grad
        # General batched case: contract over batch dims, then unbroadcast.
        ga = grad @ np.swapaxes(b, -1, -2)
        gb = np.swapaxes(a, -1, -2) @ grad
        return unbroadcast(ga, a.shape), unbroadcast(gb, b.shape)


class Sum(Function):
    def forward(self, a: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        self.in_shape = a.shape
        self.axis = axis
        self.keepdims = keepdims
        return a.sum(axis=axis, keepdims=keepdims)

    def backward(self, grad: np.ndarray):
        grad = _expand_reduced(grad, self.in_shape, self.axis, self.keepdims)
        return (np.broadcast_to(grad, self.in_shape).copy(),)


class Mean(Function):
    def forward(self, a: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        self.in_shape = a.shape
        self.axis = axis
        self.keepdims = keepdims
        self.count = a.size if axis is None else np.prod(
            [a.shape[i] for i in _normalize_axes(axis, a.ndim)]
        )
        return a.mean(axis=axis, keepdims=keepdims)

    def backward(self, grad: np.ndarray):
        grad = _expand_reduced(grad, self.in_shape, self.axis, self.keepdims)
        return (np.broadcast_to(grad / self.count, self.in_shape).astype(grad.dtype),)


class Max(Function):
    def forward(self, a: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        self.axis = axis
        self.keepdims = keepdims
        out = a.max(axis=axis, keepdims=keepdims)
        out_b = a.max(axis=axis, keepdims=True) if not keepdims and axis is not None else out
        if axis is None:
            mask = a == out
        else:
            mask = a == out_b
        # Ties split the gradient evenly, matching the subgradient convention.
        self.save_for_backward(mask, mask.sum(axis=axis, keepdims=True))
        self.in_shape = a.shape
        return out

    def backward(self, grad: np.ndarray):
        mask, counts = self.saved
        grad = _expand_reduced(grad, self.in_shape, self.axis, self.keepdims)
        return ((mask * grad / counts).astype(grad.dtype),)


class Reshape(Function):
    def forward(self, a: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        self.in_shape = a.shape
        return a.reshape(shape)

    def backward(self, grad: np.ndarray):
        return (grad.reshape(self.in_shape),)


class Permute(Function):
    def forward(self, a: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
        self.axes = axes
        return np.ascontiguousarray(a.transpose(axes))

    def backward(self, grad: np.ndarray):
        inverse = np.argsort(self.axes)
        return (np.ascontiguousarray(grad.transpose(inverse)),)


class GetItem(Function):
    def forward(self, a: np.ndarray, index: Any) -> np.ndarray:
        self.in_shape = a.shape
        self.index = index
        out = a[index]
        return out if isinstance(out, np.ndarray) else np.asarray(out)

    def backward(self, grad: np.ndarray):
        out = np.zeros(self.in_shape, dtype=grad.dtype)
        np.add.at(out, self.index, grad)
        return (out,)


class Concat(Function):
    def forward(self, *arrays: np.ndarray, axis: int = 0) -> np.ndarray:
        self.axis = axis
        self.sizes = [a.shape[axis] for a in arrays]
        return np.concatenate(arrays, axis=axis)

    def backward(self, grad: np.ndarray):
        splits = np.cumsum(self.sizes)[:-1]
        return tuple(np.ascontiguousarray(g) for g in np.split(grad, splits, axis=self.axis))


class Pad2d(Function):
    """Zero-pad the trailing two (spatial) axes of an NCHW tensor."""

    def forward(self, a: np.ndarray, padding: int) -> np.ndarray:
        self.padding = padding
        return pad2d(a, padding)

    def backward(self, grad: np.ndarray):
        p = self.padding
        if p == 0:
            return (grad,)
        return (np.ascontiguousarray(grad[..., p:-p, p:-p]),)


def _normalize_axes(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _expand_reduced(grad: np.ndarray, in_shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    """Re-insert reduced axes so the gradient broadcasts against the input."""
    if axis is None or keepdims:
        return grad if keepdims or axis is not None else np.asarray(grad).reshape(
            (1,) * len(in_shape)
        )
    axes = _normalize_axes(axis, len(in_shape))
    shape = list(in_shape)
    for a in axes:
        shape[a] = 1
    return grad.reshape(shape)
