"""Minimal reverse-mode autograd engine over NumPy arrays.

This subpackage is the substrate that replaces PyTorch's core in the
DSXplore reproduction.  It provides:

- :class:`~repro.tensor.tensor.Tensor` — an ndarray wrapper carrying a
  gradient and a backward graph node,
- :class:`~repro.tensor.function.Function` — the differentiable-op base
  class used to define new kernels (the SCC kernels in
  :mod:`repro.core` plug in here exactly the way a custom CUDA op plugs
  into ``torch.autograd.Function``),
- a library of elementwise / reduction / movement / convolution ops.

Design notes: all hot paths are vectorized NumPy (no per-element Python loops), backward rules avoid
materialising copies where a view or an einsum suffices, and the graph is a
plain topological walk (no tape indirection).
"""
from repro.tensor.tensor import Tensor, no_grad, is_grad_enabled, tensor, zeros, ones, randn
from repro.tensor.function import Function

__all__ = [
    "Tensor",
    "Function",
    "no_grad",
    "is_grad_enabled",
    "tensor",
    "zeros",
    "ones",
    "randn",
]
