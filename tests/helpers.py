"""Shared test utilities: numerical gradient checking, condition waits,
kernel-call recording, SCC kernel runs and the composed (unfused)
epilogue."""
from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple

import numpy as np

from repro.backend import REGISTRY, KernelStats, get_kernel, scc_plan


def wait_for(
    predicate: Callable[[], bool], timeout: float = 10.0, interval: float = 0.001
) -> None:
    """Poll ``predicate`` until true, failing the test after ``timeout``.

    The standard replacement for fixed-count ``time.sleep`` spin loops when
    a test must wait on another *thread* (never on scheduling policy —
    policy tests inject a virtual clock instead): the deadline scales to
    loaded CI runners while the fast path returns in one poll.
    """
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError(
                f"condition not met within {timeout}s: {predicate}"
            )
        time.sleep(interval)


def numerical_grad(
    f: Callable[[], float], x: np.ndarray, eps: float = 1e-4
) -> np.ndarray:
    """Central-difference gradient of scalar ``f()`` w.r.t. ``x`` (in place)."""
    grad = np.zeros(x.shape, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + eps
        f_plus = f()
        x[idx] = old - eps
        f_minus = f()
        x[idx] = old
        grad[idx] = (f_plus - f_minus) / (2 * eps)
    return grad


def assert_grad_close(
    analytic: np.ndarray, numeric: np.ndarray, rtol: float = 1e-3, name: str = ""
) -> None:
    """Relative max-error comparison robust to large-magnitude gradients."""
    denom = max(np.abs(numeric).max(), np.abs(analytic).max(), 1e-8)
    err = np.abs(analytic - numeric).max() / denom
    assert err < rtol, f"{name} gradient mismatch: rel err {err:.2e} >= {rtol:.0e}"


class KernelCall(NamedTuple):
    op: str
    backend: str
    plan: object
    kwargs: dict


@contextmanager
def record_kernel_calls() -> Iterator[list[KernelCall]]:
    """Record every registry kernel call made while the block runs.

    Each registered kernel is re-registered behind a recording wrapper and
    restored on exit.  Enter it before building the model under test, so a
    layer that resolves its kernel at construction is recorded too.
    """
    calls: list[KernelCall] = []
    originals = [
        (op, backend, REGISTRY.get(op, backend))
        for op in REGISTRY.ops()
        for backend in REGISTRY.backends(op)
    ]

    def recording(op, backend, fn):
        def kernel(plan, *args, **kwargs):
            calls.append(KernelCall(op, backend, plan, kwargs))
            return fn(plan, *args, **kwargs)
        return kernel

    for op, backend, fn in originals:
        REGISTRY.register(op, backend)(recording(op, backend, fn))
    try:
        yield calls
    finally:
        for op, backend, fn in originals:
            REGISTRY.register(op, backend)(fn)


def run_scc(
    cfg,
    x: np.ndarray,
    w: np.ndarray,
    grad=None,
    strategy: str = "dsxplore",
    backward_design: str = "input_centric",
    backend: str = "default",
    need_input_grad: bool = True,
    need_weight_grad: bool = True,
):
    """One SCC forward through the registry kernels on ``cfg``'s plan, then
    a backward when ``grad`` is given (a scalar fills the output's shape).

    Returns ``(out, grad_x, grad_w, stats)``: without ``grad`` both grads
    are ``None`` and ``stats`` counts the forward alone.
    """
    plan = scc_plan(cfg)
    stats = KernelStats()
    out, ctx = get_kernel("scc_forward", backend)(
        plan, x, w, strategy=strategy, stats=stats
    )
    if grad is None:
        return out, None, None, stats
    if np.isscalar(grad):
        grad = np.full_like(out, grad)
    grad_x, grad_w = get_kernel("scc_backward", backend)(
        plan, ctx, grad, strategy=strategy, backward_design=backward_design,
        need_input_grad=need_input_grad, need_weight_grad=need_weight_grad,
        stats=stats,
    )
    return out, grad_x, grad_w, stats


def compose_epilogue(out: np.ndarray, ep) -> np.ndarray:
    """An ``EpilogueArgs``' stages as separate out-of-place ops, the way the
    unfused layer stack computes them."""
    y = out
    if ep.bias is not None:
        y = y + ep.bias
    if ep.scale is not None:
        y = (y - ep.mean) * ep.scale + ep.beta
    if ep.activation == "relu":
        y = y * (y > 0)
    elif ep.activation == "relu6":
        six = np.asarray(6.0, dtype=y.dtype)
        y = y * (y > 0)
        y = six - y
        y = y * (y > 0)
        y = six - y
    return y
