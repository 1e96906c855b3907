"""The shared worker pool behind the async gateway's batch offload.

:func:`submit_pooled` hands one task to a lazily-created, process-wide
:class:`~concurrent.futures.ThreadPoolExecutor` and returns its future.
The pool is sized once, on first use, from ``REPRO_NUM_WORKERS`` (else the
usable CPU count), and keeps that size for the life of the process.  The
kernels themselves are serial, and so is the synchronous transports' batch
drain; only :class:`~repro.serve.gateway.AsyncGateway` runs batches here,
at most :func:`get_num_workers` at a time.
"""
from __future__ import annotations

import concurrent.futures
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from repro.faults import active_faults

__all__ = [
    "default_num_workers",
    "get_num_workers",
    "submit_pooled",
]

# Sequence number feeding the fault plane's pool_submit draws: each
# submission is a distinct opportunity even at an identical call site.
_SUBMIT_SEQ = itertools.count()

_LOCK = threading.Lock()
_EXECUTOR: ThreadPoolExecutor | None = None
_NUM_WORKERS: int | None = None        # None = not resolved yet (env/cpu count)


def _usable_cpu_count() -> int:
    """CPUs this *process* may run on, not CPUs the host has.

    ``os.cpu_count()`` reports the physical host, which overshoots badly in
    cgroup/affinity-limited environments (a CI container pinned to 2 cores
    of a 64-core host would get a 64-thread pool — 32x oversubscribed).
    The scheduler affinity mask is the real bound where the platform
    exposes it; elsewhere fall back to the host count.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            return max(1, len(affinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return max(1, os.cpu_count() or 1)


def default_num_workers() -> int:
    """``REPRO_NUM_WORKERS`` when set, else the usable CPU count (>= 1).

    "Usable" means the process's scheduler-affinity mask where available
    (cgroup-limited CI runners, ``taskset``), not the raw host CPU count.
    """
    env = os.environ.get("REPRO_NUM_WORKERS", "").strip()
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_NUM_WORKERS must be an integer, got {env!r}"
            ) from None
        if value < 1:
            raise ValueError(f"REPRO_NUM_WORKERS must be >= 1, got {value}")
        return value
    return _usable_cpu_count()


def get_num_workers() -> int:
    """The shared pool's size (resolved once, on first call)."""
    global _NUM_WORKERS
    with _LOCK:
        if _NUM_WORKERS is None:
            _NUM_WORKERS = default_num_workers()
        return _NUM_WORKERS


def _executor() -> ThreadPoolExecutor:
    global _EXECUTOR
    workers = get_num_workers()
    with _LOCK:
        if _EXECUTOR is None:
            _EXECUTOR = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-worker"
            )
        return _EXECUTOR


def submit_pooled(fn: Callable[..., Any], /, *args: Any) -> concurrent.futures.Future:
    """Submit one task to the shared worker pool; returns its future.

    The asyncio serving gateway wraps the future with
    ``asyncio.wrap_future`` to await batch execution without tying up the
    event loop.  The ``pool_submit`` fault site fires before submission.
    A ``RuntimeError`` from the pool (interpreter shutdown, a pool shut
    down underneath) is terminal and propagates.
    """
    inj = active_faults()
    if inj is not None:
        inj.check(
            "pool_submit",
            key=(getattr(fn, "__qualname__", str(fn)),),
            attempt=next(_SUBMIT_SEQ),
        )
    return _executor().submit(fn, *args)
