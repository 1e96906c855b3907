"""The shared worker pool behind every host-parallel consumer.

Every host-parallel consumer in the process — the ``threaded`` kernel
backend (:mod:`repro.backend.threaded_backend`), the serving transports'
batch drain and the async gateway's batch offload — funnels through two
calls: :func:`parallel_map` and :func:`submit_pooled`.  Behind them sits
one lazily-created shared :class:`~concurrent.futures.ThreadPoolExecutor`,
sized by ``REPRO_NUM_WORKERS`` (else the usable CPU count);
:func:`num_workers` re-sizes it.

Two properties the kernel backend depends on:

- **owner propagation** — :func:`parallel_map` captures the submitting
  thread's :func:`~repro.backend.workload.plan_owner` tag and re-installs it
  inside every task, so plan-cache traffic from pooled kernel shards is
  still attributed to the right serving model;
- **nested calls run inline** — a task already executing on the pool that
  reaches another ``parallel_map`` (a router-overlapped batch whose model
  forward hits a threaded kernel) runs that inner region serially on its
  own worker instead of re-submitting, which both avoids pool-starvation
  deadlock and expresses the right policy: model-level overlap outranks
  kernel-level sharding.
"""
from __future__ import annotations

import concurrent.futures
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

from repro.backend.workload import current_plan_owner, plan_owner
from repro.faults import active_faults

__all__ = [
    "ShardError",
    "default_num_workers",
    "get_num_workers",
    "set_num_workers",
    "num_workers",
    "parallel_map",
    "shard_slices",
    "submit_pooled",
]


def _describe_item(item: Any) -> str:
    """A compact, attribution-friendly description of one region item."""
    shape = getattr(item, "shape", None)
    if shape is not None:
        return f"{type(item).__name__}(shape={tuple(shape)})"
    if isinstance(item, slice):
        return f"slice({item.start}, {item.stop})"
    text = repr(item)
    return text if len(text) <= 80 else text[:77] + "..."


class ShardError(RuntimeError):
    """One :func:`parallel_map` task failed, wrapped with workload context.

    A fault deep inside a threaded kernel shard otherwise surfaces as a
    bare exception with no hint of *which* region, shard, or operand
    triggered it.  The wrapper names the region ``op``, the shard index,
    and a shape-aware summary of the item; the original exception rides
    along as ``cause`` (and ``__cause__``), and its ``repr`` is embedded in
    the message so existing ``pytest.raises(..., match=...)`` patterns on
    the underlying error keep matching.
    """

    def __init__(self, op: str, shard: int, total: int, item: Any,
                 cause: BaseException) -> None:
        super().__init__(
            f"parallel region {op!r} shard {shard}/{total} failed on "
            f"{_describe_item(item)}: {cause!r}"
        )
        self.op = op
        self.shard = shard
        self.cause = cause
        self.__cause__ = cause


# Sequence number feeding the fault plane's pool_submit draws: each
# submission is a distinct opportunity even at an identical call site.
_SUBMIT_SEQ = itertools.count()

_LOCK = threading.Lock()
_EXECUTOR: ThreadPoolExecutor | None = None
_EXECUTOR_WORKERS: int | None = None   # size the live executor was built with
_NUM_WORKERS: int | None = None        # None = not resolved yet (env/cpu count)
_IN_WORKER = threading.local()         # set while executing a pooled task


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
    """The pool size parallel regions shard for (resolved lazily)."""
    global _NUM_WORKERS
    with _LOCK:
        if _NUM_WORKERS is None:
            _NUM_WORKERS = default_num_workers()
        return _NUM_WORKERS


def set_num_workers(workers: int) -> None:
    """Re-size the shared pool; the executor is rebuilt on next use.

    Safe against concurrent regions: the stale pool is shut down without
    cancelling its queued tasks (in-flight regions finish there), and a
    region caught mid-submission resumes its remaining tasks on the fresh
    pool (see the retry loop in :func:`_submit`).
    """
    if workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {workers}")
    global _NUM_WORKERS, _EXECUTOR, _EXECUTOR_WORKERS
    with _LOCK:
        _NUM_WORKERS = workers
        stale, _EXECUTOR, _EXECUTOR_WORKERS = _EXECUTOR, None, None
    if stale is not None:
        stale.shutdown(wait=False)


@contextmanager
def num_workers(workers: int) -> Iterator[None]:
    """Temporarily pin the pool size (tests, deterministic benchmark runs).

    ``num_workers(1)`` is the serialisation switch: every parallel region
    inside the block runs inline on the calling thread, which restores the
    exact pre-pool execution order (used where determinism of shared-cache
    access order matters more than overlap).
    """
    previous = get_num_workers()
    set_num_workers(workers)
    try:
        yield
    finally:
        set_num_workers(previous)


def _executor() -> ThreadPoolExecutor:
    global _EXECUTOR, _EXECUTOR_WORKERS
    workers = get_num_workers()
    with _LOCK:
        if _EXECUTOR is None or _EXECUTOR_WORKERS != workers:
            if _EXECUTOR is not None:
                _EXECUTOR.shutdown(wait=False)
            _EXECUTOR = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-worker"
            )
            _EXECUTOR_WORKERS = workers
        return _EXECUTOR


def shard_slices(total: int, parts: int) -> list[slice]:
    """Split ``range(total)`` into at most ``parts`` balanced slices."""
    parts = max(1, min(parts, total))
    base, extra = divmod(total, parts)
    slices, start = [], 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        slices.append(slice(start, start + size))
        start += size
    return slices


def _is_terminal_submit_error(exc: RuntimeError, executor: ThreadPoolExecutor) -> bool:
    """Whether a failed ``submit`` can ever succeed by retrying.

    ``ThreadPoolExecutor.submit`` raises ``RuntimeError`` in two very
    different situations that the resize-retry loops must tell apart:

    - a concurrent :func:`set_num_workers` shut the stale pool down
      ("cannot schedule new futures after shutdown") — *retryable*:
      re-fetching the executor yields the freshly built pool;
    - the interpreter is exiting ("cannot schedule new futures after
      interpreter shutdown") — *terminal*: no rebuild will ever accept
      work again, and retrying forever is an infinite spin that hangs
      process teardown.

    The message check catches the interpreter case explicitly; the
    identity check catches every other terminal cause (a pool that is dead
    without anyone having resized it re-resolves to the *same* object, so
    retrying would re-raise identically forever).
    """
    if "interpreter shutdown" in str(exc):
        return True
    return _executor() is executor


def _pooled(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Wrap ``fn`` with the pooled-worker discipline.

    The submitting thread's plan-cache owner tag is captured here and
    re-installed inside the task, and the task is marked as a pooled worker
    so any nested parallel region runs inline on its own lane (no
    pool-starvation deadlock).
    """
    owner = current_plan_owner()

    def run(*args: Any) -> Any:
        _IN_WORKER.active = True
        try:
            with plan_owner(owner):
                return fn(*args)
        finally:
            _IN_WORKER.active = False

    return run


def _submit(run: Callable[..., Any], *args: Any) -> concurrent.futures.Future:
    """Submit one task to the shared pool, surviving a concurrent resize.

    A :func:`set_num_workers` rebuild shuts the stale pool down (making its
    ``submit`` raise ``RuntimeError``) but never cancels already-queued
    tasks, so a raise re-fetches the pool and retries there.  A terminal
    failure (interpreter shutdown, or a dead pool nobody rebuilt)
    propagates instead of spinning forever — see
    :func:`_is_terminal_submit_error`.
    """
    while True:
        executor = _executor()
        try:
            return executor.submit(run, *args)
        except RuntimeError as exc:
            if _is_terminal_submit_error(exc, executor):
                raise


def submit_pooled(fn: Callable[..., Any], /, *args: Any) -> concurrent.futures.Future:
    """Submit one task to the shared worker pool; returns its future.

    The single-task sibling of :func:`parallel_map`, for consumers that
    need a *future* rather than blocking results — the asyncio serving
    gateway wraps it with ``asyncio.wrap_future`` to await batch execution
    without tying up the event loop.  Same worker discipline as a
    ``parallel_map`` task: the submitting thread's plan-cache owner tag is
    re-installed inside the task, the task is marked as a pooled worker so
    any nested parallel region runs inline on its own worker (no
    pool-starvation deadlock), and submission retries transparently across
    a concurrent :func:`set_num_workers` rebuild.
    """
    inj = active_faults()
    if inj is not None:
        inj.check(
            "pool_submit",
            key=(getattr(fn, "__qualname__", str(fn)),),
            attempt=next(_SUBMIT_SEQ),
        )
    return _submit(_pooled(fn), *args)


def parallel_map(
    fn: Callable[[Any], Any], items: Sequence[Any], op: str = "region"
) -> list[Any]:
    """Run ``fn`` over ``items``, on the shared worker pool when it helps.

    Falls back to an inline serial loop when the region is trivial
    (``<= 1`` task), the pool is sized to one worker, or the caller is
    itself a pooled task (nested regions run on their own worker — see
    module docstring).  The first task exception propagates to the caller
    either way — wrapped in :class:`ShardError` naming the region, shard
    index and item, so a fault deep in a threaded shard is attributable
    without a debugger; in the pooled case remaining tasks still run to
    completion first (futures are not cancelled), so shared output buffers
    are never abandoned half-written to a racing shard.
    """
    tasks = list(items)

    def call(index: int, item: Any) -> Any:
        try:
            return fn(item)
        except ShardError:
            raise  # a nested region already attributed it
        except Exception as exc:
            raise ShardError(op, index, len(tasks), item, exc) from exc

    if (
        len(tasks) <= 1
        or getattr(_IN_WORKER, "active", False)
        or get_num_workers() == 1
    ):
        return [call(index, item) for index, item in enumerate(tasks)]

    run = _pooled(call)
    futures: list[concurrent.futures.Future] = []
    try:
        for index, item in enumerate(tasks):
            futures.append(_submit(run, index, item))
        return [future.result() for future in futures]
    except BaseException:
        # A shard failed, or the pool refused work for good: wait out the
        # rest before propagating, so no worker is still writing a shared
        # output buffer after the caller has resumed (and possibly reused
        # or freed it).
        concurrent.futures.wait(futures)
        raise
