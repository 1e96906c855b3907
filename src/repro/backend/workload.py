"""Workload descriptors and the process-wide execution-plan cache.

A :class:`Workload` is a hashable value-object naming one op invocation
shape-class: the op, the operand shapes, the dtype and the static
hyper-parameters (stride/padding/groups, cg/co, ...).  Anything derivable
from a workload alone — window/segment index tables, ``np.einsum_path``
contraction plans, scratch buffers — is computed once, stored in the
:class:`PlanCache`, and reused by every subsequent call with the same
workload.  This is the repo's analog of TVM/topi's per-workload schedule
tables: dispatch keys on *what* is being computed, plans capture *how*.
"""
from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np


# ---------------------------------------------------------------------------
# Plan ownership: which client (e.g. a served model) is driving the cache
# ---------------------------------------------------------------------------

_OWNER = threading.local()


def current_plan_owner() -> str | None:
    """The owner tag cache traffic on this thread is attributed to."""
    return getattr(_OWNER, "name", None)


@contextmanager
def plan_owner(name: str | None) -> Iterator[None]:
    """Attribute plan-cache traffic inside the block to ``name``.

    The serving :class:`repro.serve.Server` wraps plan pre-building and
    batch execution in ``plan_owner(model_name)`` so the shared cache can
    report per-model hit/miss/build/eviction counts.  The tag is
    thread-local, so concurrent servers (or a server worker next to a
    trainer) attribute independently; ``None`` restores the default
    (unattributed) accounting.
    """
    previous = current_plan_owner()
    _OWNER.name = name
    try:
        yield
    finally:
        _OWNER.name = previous


def _canonical(value: Any) -> Any:
    """Recursively convert a param value to a hashable canonical form.

    Lists, tuples and ndarrays all become (nested) tuples, and numpy scalars
    become Python scalars, so ``padding=[1, 1]``, ``padding=(1, 1)`` and
    ``padding=np.array([1, 1])`` key the same plan instead of raising
    ``TypeError: unhashable type`` at cache-lookup time.
    """
    if isinstance(value, np.ndarray):
        return _canonical(value.tolist())
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    if isinstance(value, np.generic):
        return value.item()
    return value


_DTYPE_NAMES: dict = {}


def dtype_name(dtype: Any) -> str:
    """Canonical name of ``dtype``, so ``"float32"``, ``np.float32`` and
    ``np.dtype("float32")`` all key the same plan.  Names are memoised per
    spelling: ``np.dtype(dtype).name`` costs microseconds, a dict hit tens
    of nanoseconds."""
    try:
        return _DTYPE_NAMES[dtype]
    except KeyError:
        name = _DTYPE_NAMES[dtype] = np.dtype(dtype).name
        return name
    except TypeError:  # an unhashable dtype spec
        return np.dtype(dtype).name


@dataclass(frozen=True)
class Workload:
    """Hashable descriptor of one kernel-invocation shape-class."""

    op: str
    in_shape: tuple = ()
    weight_shape: tuple = ()
    dtype: str = "float32"
    params: tuple = ()  # sorted (name, value) pairs of static hyper-parameters

    @classmethod
    def make(
        cls,
        op: str,
        in_shape: tuple = (),
        weight_shape: tuple = (),
        dtype: Any = "float32",
        **params: Any,
    ) -> "Workload":
        return cls(
            op=op,
            in_shape=_canonical(tuple(in_shape)),
            weight_shape=_canonical(tuple(weight_shape)),
            dtype=dtype_name(dtype),
            params=tuple(sorted((k, _canonical(v)) for k, v in params.items())),
        )

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default


_MISSING = object()


class PlanCache:
    """Single-flight LRU cache mapping :class:`Workload` -> execution plan.

    Plans are built on first use by the ``builder`` passed to
    :meth:`get_or_build`; a builder that raises caches nothing, so invalid
    workloads fail identically on every call.  Hit/miss counters make the
    cache's effect observable (``bench_ablation_plan_cache`` reports them).

    Lookups are **single-flight**: when several threads miss the same
    workload concurrently, exactly one runs the (possibly slow) builder
    outside the lock while the others wait and are then served the finished
    plan.  ``misses`` therefore counts true builder invocations — a waiter
    that receives an in-flight build counts as a hit, never as a second
    build — so ``stats()["misses"] == stats()["builds"]`` always holds and
    hit rates stay meaningful under a multi-threaded serving front-end.

    **Eviction and ownership.**  When the cache overflows ``maxsize``, the
    least recently used entry goes.  Every access is attributed to the
    owner tag installed by :func:`plan_owner` on the calling thread
    (``None`` when untagged): hits, misses and builds count for the owner
    that made the access, while each resident entry — its ``size`` and,
    eventually, its eviction — is charged to the owner that built it.
    :meth:`owner_stats` reports these per-owner counts, which sum exactly
    to the global :meth:`stats`.
    """

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.builds = 0
        self.evictions = 0
        self._plans: OrderedDict[Workload, Any] = OrderedDict()
        self._entry_owner: dict[Workload, str | None] = {}  # builder per entry
        self._owner_stats: dict[str | None, dict[str, int]] = {}
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._building: set[Workload] = set()
        self._epoch = 0  # bumped by clear(): in-flight builds must not insert

    # -- owner accounting (all called with the lock held) ----------------------

    def _owner_acc(self, owner: str | None) -> dict[str, int]:
        acc = self._owner_stats.get(owner)
        if acc is None:
            acc = self._owner_stats[owner] = {
                "hits": 0, "misses": 0, "builds": 0, "evictions": 0,
            }
        return acc

    def _evict_lru(self) -> None:
        victim, _ = self._plans.popitem(last=False)
        self.evictions += 1
        self._owner_acc(self._entry_owner.pop(victim))["evictions"] += 1

    # -- lookup ----------------------------------------------------------------

    def get_or_build(self, workload: Workload, builder: Callable[[], Any]) -> Any:
        owner = current_plan_owner()
        with self._cond:
            while True:
                plan = self._plans.get(workload, _MISSING)
                if plan is not _MISSING:
                    self.hits += 1
                    self._owner_acc(owner)["hits"] += 1
                    self._plans.move_to_end(workload)
                    return plan
                if workload not in self._building:
                    # We own this build; everyone else arriving now waits.
                    self._building.add(workload)
                    self.misses += 1
                    self.builds += 1
                    acc = self._owner_acc(owner)
                    acc["misses"] += 1
                    acc["builds"] += 1
                    epoch = self._epoch
                    break
                # Another thread is building this workload: wait for it to
                # finish (or fail, in which case we take over and fail the
                # same way on our own builder call).
                self._cond.wait()
        try:
            plan = builder()  # outside the lock: builders may be slow
        except BaseException:
            with self._cond:
                self._building.discard(workload)
                self._cond.notify_all()
            raise
        with self._cond:
            self._building.discard(workload)
            if epoch == self._epoch:
                # A clear() racing this build invalidates it: the caller
                # still gets a working plan, but a cleared ("cold") cache
                # must not silently re-acquire pre-clear entries.
                self._plans[workload] = plan
                self._entry_owner[workload] = owner
                while len(self._plans) > self.maxsize:
                    self._evict_lru()
            self._cond.notify_all()
        return plan

    # -- maintenance -----------------------------------------------------------

    def clear(self) -> None:
        with self._cond:
            self._epoch += 1
            self._plans.clear()
            self._entry_owner.clear()
            self._owner_stats.clear()
            self.hits = 0
            self.misses = 0
            self.builds = 0
            self.evictions = 0

    def resize(self, maxsize: int) -> None:
        """Change the capacity in place, evicting down if shrinking.

        The serving stress/soak tests (and capacity experiments) bound the
        *global* cache this way instead of swapping the singleton out from
        under live servers.
        """
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        with self._cond:
            self.maxsize = maxsize
            while len(self._plans) > self.maxsize:
                self._evict_lru()

    # -- observability ---------------------------------------------------------

    def stats(self) -> dict[str, int]:
        with self._cond:
            return {
                "size": len(self._plans),
                "hits": self.hits,
                "misses": self.misses,
                "builds": self.builds,
                "evictions": self.evictions,
                "in_flight": len(self._building),
            }

    def owner_stats(self) -> dict[str | None, dict[str, int]]:
        """Per-owner accounting: hit/miss/build counts by *accessor*,
        evictions and resident ``size`` by the owner that built the entry.

        Each global counter in :meth:`stats` equals the sum of the matching
        per-owner counter (untagged traffic lands on the ``None`` owner), so
        a multi-model router can reconcile its per-model view against the
        process-wide one.
        """
        with self._cond:
            # Every entry's builder already has an accumulator: it counted
            # the build, and clear() drops entries and accumulators together.
            out = {owner: dict(acc, size=0)
                   for owner, acc in self._owner_stats.items()}
            for owner in self._entry_owner.values():
                out[owner]["size"] += 1
            return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, workload: Workload) -> bool:
        with self._lock:
            return workload in self._plans


#: The process-wide plan cache every backend kernel shares.
PLAN_CACHE = PlanCache()


def plan_cache_stats() -> dict[str, int]:
    """Hit/miss/size counters of the global plan cache."""
    return PLAN_CACHE.stats()


def plan_cache_owner_stats() -> dict[str | None, dict[str, int]]:
    """Per-owner counters of the global plan cache (see ``plan_owner``)."""
    return PLAN_CACHE.owner_stats()


def clear_plan_cache() -> None:
    """Drop every cached plan (used by benchmarks to model cold execution)."""
    PLAN_CACHE.clear()
