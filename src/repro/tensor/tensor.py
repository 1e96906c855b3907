"""The Tensor type: an ndarray with a gradient and a reverse-mode graph node.

Gradient propagation is a single reverse topological walk over the recorded
:class:`~repro.tensor.function.Function` nodes.  Gradients accumulate with
``+=`` into leaf tensors, matching PyTorch semantics (call
:meth:`Tensor.zero_grad` / ``optimizer.zero_grad`` between steps).
"""
from __future__ import annotations

import contextlib
import threading
from typing import Any, Iterator, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32

# Grad mode is *thread-local* (as in PyTorch): each serving worker or
# client thread toggles recording for itself only.  A process-global flag
# would race under the async gateway's pool — two overlapping no_grad()
# blocks on different threads could interleave their save/restore and
# leave recording disabled for the whole process.
_grad_state = threading.local()


def is_grad_enabled() -> bool:
    return getattr(_grad_state, "enabled", True)


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph recording on this thread (inference / update steps)."""
    prev = is_grad_enabled()
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = prev


class Tensor:
    """ndarray + grad + graph node.  See module docstring."""

    __slots__ = ("data", "grad", "requires_grad", "_ctx")
    __array_priority__ = 100.0  # make ndarray <op> Tensor dispatch to Tensor

    def __init__(self, data: Any, requires_grad: bool = False) -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype != DEFAULT_DTYPE and np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(DEFAULT_DTYPE)
        elif not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad)
        self._ctx = None  # Function that produced this tensor, if any

    # -- basic introspection -------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def __len__(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:
        grad_tag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_tag})\n{self.data!r}"

    # -- grad management -------------------------------------------------------
    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Reverse-mode accumulation starting from this tensor.

        ``grad`` defaults to ones (i.e. this tensor should be a scalar loss).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    f"backward() without an explicit gradient requires a scalar output, "
                    f"got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological order over Function nodes reachable from self.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited or node._ctx is None:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._ctx.inputs:
                if parent._ctx is not None and id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        if self._ctx is None:
            self.grad = grad if self.grad is None else self.grad + grad
            return

        for node in reversed(topo):
            ctx = node._ctx
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            input_grads = ctx.backward(node_grad)
            if not isinstance(input_grads, tuple):
                input_grads = (input_grads,)
            if len(input_grads) != len(ctx.inputs):
                raise RuntimeError(
                    f"{type(ctx).__name__}.backward returned {len(input_grads)} grads "
                    f"for {len(ctx.inputs)} inputs"
                )
            for parent, g in zip(ctx.inputs, input_grads):
                if g is None or not parent.requires_grad:
                    continue
                if g.shape != parent.data.shape:
                    raise RuntimeError(
                        f"{type(ctx).__name__} produced grad of shape {g.shape} "
                        f"for input of shape {parent.data.shape}"
                    )
                if parent._ctx is None:
                    parent.grad = g.copy() if parent.grad is None else parent.grad + g
                else:
                    acc = grads.get(id(parent))
                    grads[id(parent)] = g if acc is None else acc + g

    # -- operators (implemented in ops.py, bound below) -----------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.tensor.ops import Sum

        return Sum.apply(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.tensor.ops import Mean

        return Mean.apply(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.tensor.ops import Max

        return Max.apply(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape: int) -> "Tensor":
        from repro.tensor.ops import Reshape

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Reshape.apply(self, shape=shape)

    def transpose(self, *axes: int) -> "Tensor":
        from repro.tensor.ops import Permute

        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        return Permute.apply(self, axes=axes)

    def relu(self) -> "Tensor":
        from repro.tensor.ops import ReLU

        return ReLU.apply(self)

    def exp(self) -> "Tensor":
        from repro.tensor.ops import Exp

        return Exp.apply(self)

    def log(self) -> "Tensor":
        from repro.tensor.ops import Log

        return Log.apply(self)

    def sqrt(self) -> "Tensor":
        from repro.tensor.ops import Pow

        return Pow.apply(self, exponent=0.5)

    def __add__(self, other: Any) -> "Tensor":
        from repro.tensor.ops import Add

        return Add.apply(self, _wrap(other))

    __radd__ = __add__

    def __sub__(self, other: Any) -> "Tensor":
        from repro.tensor.ops import Sub

        return Sub.apply(self, _wrap(other))

    def __rsub__(self, other: Any) -> "Tensor":
        from repro.tensor.ops import Sub

        return Sub.apply(_wrap(other), self)

    def __mul__(self, other: Any) -> "Tensor":
        from repro.tensor.ops import Mul

        return Mul.apply(self, _wrap(other))

    __rmul__ = __mul__

    def __truediv__(self, other: Any) -> "Tensor":
        from repro.tensor.ops import Div

        return Div.apply(self, _wrap(other))

    def __rtruediv__(self, other: Any) -> "Tensor":
        from repro.tensor.ops import Div

        return Div.apply(_wrap(other), self)

    def __neg__(self) -> "Tensor":
        from repro.tensor.ops import Neg

        return Neg.apply(self)

    def __pow__(self, exponent: float) -> "Tensor":
        from repro.tensor.ops import Pow

        return Pow.apply(self, exponent=float(exponent))

    def __matmul__(self, other: Any) -> "Tensor":
        from repro.tensor.ops import MatMul

        return MatMul.apply(self, _wrap(other))

    def __getitem__(self, index: Any) -> "Tensor":
        from repro.tensor.ops import GetItem

        return GetItem.apply(self, index=index)

    def pad2d(self, padding: int) -> "Tensor":
        from repro.tensor.ops import Pad2d

        return Pad2d.apply(self, padding=padding)


def _wrap(value: Any) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


# -- constructors ---------------------------------------------------------------
def tensor(data: Any, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def zeros(*shape: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)


def ones(*shape: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)


def randn(*shape: int, requires_grad: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    from repro.utils.rng import get_rng

    gen = rng if rng is not None else get_rng()
    return Tensor(gen.standard_normal(shape).astype(DEFAULT_DTYPE), requires_grad=requires_grad)


def cat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    from repro.tensor.ops import Concat

    return Concat.apply(*tensors, axis=axis)
