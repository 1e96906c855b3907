"""Differentiable-operation base class and graph bookkeeping.

A :class:`Function` instance is one node in the reverse-mode graph.  Calling
``SomeOp.apply(*inputs)`` (or ``SomeOp()(*inputs)``, which keeps the node in
hand) runs the forward kernel and, when gradients are enabled and at least
one input requires them, records the node so ``Tensor.backward`` can replay
the chain rule in reverse topological order.

The contract mirrors ``torch.autograd.Function`` closely on purpose: the
paper integrates its CUDA SCC kernels into PyTorch through exactly this
interface, and our reproduction integrates its NumPy SCC kernels the same
way (:mod:`repro.core.scc`).
"""
from __future__ import annotations

from typing import Any

import numpy as np


class Function:
    """Base class for differentiable operations.

    Subclasses implement::

        def forward(self, *arrays, **kwargs) -> np.ndarray
        def backward(self, grad_output: np.ndarray) -> tuple[np.ndarray | None, ...]

    ``forward`` receives raw ndarrays (already unwrapped from Tensors) and
    returns a raw ndarray.  ``backward`` returns one gradient per *tensor*
    input, or ``None`` for inputs that do not require grad.
    """

    def __init__(self) -> None:
        self.inputs: tuple[Any, ...] = ()
        self.needs_input_grad: tuple[bool, ...] = ()
        self.saved: tuple[Any, ...] = ()

    # -- subclass API ------------------------------------------------------
    def save_for_backward(self, *items: Any) -> None:
        self.saved = items

    def forward(self, *arrays: np.ndarray, **kwargs: Any) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> tuple[np.ndarray | None, ...]:
        raise NotImplementedError

    # -- graph construction ------------------------------------------------
    def __call__(self, *args: Any, **kwargs: Any) -> "Tensor":
        """Run ``forward`` on this node and record it in the graph.

        Calling an instance (rather than :meth:`apply`) leaves the node in
        the caller's hands, to read side outputs ``forward`` set on it.
        """
        from repro.tensor.tensor import Tensor, is_grad_enabled

        tensor_inputs = [a for a in args if isinstance(a, Tensor)]
        raw_args = [a.data if isinstance(a, Tensor) else a for a in args]
        out_data = self.forward(*raw_args, **kwargs)

        requires = is_grad_enabled() and any(t.requires_grad for t in tensor_inputs)
        out = Tensor(out_data, requires_grad=requires)
        if requires:
            self.inputs = tuple(tensor_inputs)
            self.needs_input_grad = tuple(t.requires_grad for t in tensor_inputs)
            out._ctx = self
        return out

    @classmethod
    def apply(cls, *args: Any, **kwargs: Any) -> "Tensor":
        return cls()(*args, **kwargs)


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after NumPy broadcasting.

    The VJP of broadcasting is summation over the broadcast axes; this is the
    single helper every binary elementwise op uses, so broadcasting semantics
    stay consistent across the op library.
    """
    if grad.shape == shape:
        return grad
    # Sum away leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)
