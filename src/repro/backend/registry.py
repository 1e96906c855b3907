"""The kernel registry: named ops dispatched to pluggable backends.

Every execution primitive of the reproduction — ``conv2d``, ``scc_forward``
(both with an optional fused ``epilogue=``), their ``*_backward`` pairs and
pooling — is registered here under one or more backend names.  Callers
dispatch with :func:`get_kernel`:

- ``"reference"`` — naive loop kernels, the ground truth every fast path is
  tested against;
- ``"numpy"`` — the vectorised einsum / ``as_strided`` fast paths, fed by
  cached execution plans;
- ``"default"`` — auto-selects the best available backend (numpy when
  registered, reference otherwise).

The registry is intentionally dumb: a two-level dict plus a preference
order.  Backends self-register at import time via the
:func:`register_kernel` decorator, so adding a backend is one new module
that never touches call sites.
"""
from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Callable, Iterator

#: Auto-selection order for ``backend="default"``.
DEFAULT_BACKEND_ORDER = ("numpy", "reference")

# Thread-local "default" redirection: while set, default-dispatched ops
# prefer the named backend (falling through to the normal order per op).
# This is the mechanism behind per-workload graceful degradation — the
# serving engine demotes a fault-prone workload down the backend chain by
# wrapping just that workload's batch forward in backend_override().
_OVERRIDE = threading.local()


@contextmanager
def backend_override(backend: str | None) -> Iterator[None]:
    """Prefer ``backend`` for default-dispatched ops on this thread.

    Explicit ``backend=`` arguments at call sites still win — the override
    only redirects ``"default"`` resolution, and only for ops where the
    named backend is registered (others fall through to the normal order,
    so overriding to an absent accelerator can never break dispatch).
    ``None`` is a no-op, letting callers write one ``with`` regardless of
    whether a demotion is active.
    """
    if backend is None:
        yield
        return
    previous = getattr(_OVERRIDE, "name", None)
    _OVERRIDE.name = backend
    try:
        yield
    finally:
        _OVERRIDE.name = previous


def current_backend_override() -> str | None:
    """The thread's active default-dispatch override, if any."""
    return getattr(_OVERRIDE, "name", None)


def env_backend_order(
    default_order: tuple[str, ...] = DEFAULT_BACKEND_ORDER,
    env: str | None = None,
) -> tuple[str, ...]:
    """The ``default`` preference order, honouring ``REPRO_BACKEND``.

    A set ``REPRO_BACKEND`` (e.g. ``reference``) is *prepended* to the base
    order rather than replacing it: resolution falls through to the next
    registered backend per op, so ``REPRO_BACKEND=reference`` still
    dispatches any op ``reference`` does not implement.  A name no op
    registers raises ``ValueError`` — a typo must not silently run the
    default backend.
    """
    name = (os.environ.get("REPRO_BACKEND", "") if env is None else env).strip()
    if not name or name == "default":
        return default_order
    registered = sorted({b for op in REGISTRY.ops() for b in REGISTRY.backends(op)})
    if name not in registered:
        raise ValueError(
            f"REPRO_BACKEND={name!r} is not a registered backend; "
            f"registered: {registered}"
        )
    return (name,) + tuple(b for b in default_order if b != name)


class KernelRegistry:
    """Two-level dispatch table: op name -> backend name -> kernel callable."""

    def __init__(self, default_order: tuple[str, ...] = DEFAULT_BACKEND_ORDER) -> None:
        self._kernels: dict[str, dict[str, Callable]] = {}
        self.default_order = default_order

    def register(self, op: str, backend: str) -> Callable[[Callable], Callable]:
        """Decorator registering ``fn`` as the ``backend`` implementation of ``op``."""

        def decorator(fn: Callable) -> Callable:
            self._kernels.setdefault(op, {})[backend] = fn
            return fn

        return decorator

    def get(self, op: str, backend: str = "default") -> Callable:
        """Resolve one kernel; raises ``ValueError`` naming the alternatives."""
        try:
            impls = self._kernels[op]
        except KeyError:
            raise ValueError(
                f"unknown kernel op {op!r}; registered ops: {self.ops()}"
            ) from None
        if backend in (None, "default"):
            override = current_backend_override()
            if override is not None and override in impls:
                return impls[override]
            for name in self.default_order:
                if name in impls:
                    return impls[name]
            return next(iter(impls.values()))
        try:
            return impls[backend]
        except KeyError:
            raise ValueError(
                f"op {op!r} has no backend {backend!r}; "
                f"available: {self.backends(op)} (or 'default')"
            ) from None

    def resolve_name(self, op: str, backend: str = "default") -> str:
        """The concrete backend name ``get(op, backend)`` would dispatch to."""
        fn = self.get(op, backend)
        for name, impl in self._kernels[op].items():
            if impl is fn:
                return name
        raise AssertionError("unreachable: resolved kernel not in registry")

    def backends(self, op: str) -> tuple[str, ...]:
        return tuple(sorted(self._kernels.get(op, {})))

    def ops(self) -> tuple[str, ...]:
        return tuple(sorted(self._kernels))


#: The process-wide registry all layers and benchmarks dispatch through.
REGISTRY = KernelRegistry()


def register_kernel(op: str, backend: str) -> Callable[[Callable], Callable]:
    return REGISTRY.register(op, backend)


def get_kernel(op: str, backend: str = "default") -> Callable:
    return REGISTRY.get(op, backend)


def available_backends(op: str) -> tuple[str, ...]:
    return REGISTRY.backends(op)


def env_stamp() -> dict:
    """The execution-relevant environment: backend, worker count, host CPUs.

    The block benchmark result JSONs are stamped with, so measurements from
    different configurations are never compared.  ``num_workers`` is the
    integer ``REPRO_NUM_WORKERS`` pins, and ``None`` when it is unset, so
    that same-machine runs without the pin still match.  Nothing in the
    program sizes itself from it: kernels and serving run one batch at a
    time.
    """
    workers = os.environ.get("REPRO_NUM_WORKERS", "").strip()
    return {
        "backend": REGISTRY.resolve_name("conv2d", "default"),
        "num_workers": int(workers) if workers else None,
        "host_cpus": os.cpu_count() or 1,
    }
