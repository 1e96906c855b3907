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

import itertools
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
    report per-model hit/miss/eviction counts and weight eviction by
    per-model traffic.  The tag is thread-local, so concurrent servers (or
    a server worker next to a trainer) attribute independently; ``None``
    restores the default (unattributed) accounting.
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
            # Canonical name so "float32", np.float32 and np.dtype("float32")
            # all key the same plan.
            dtype=np.dtype(dtype).name,
            params=tuple(sorted((k, _canonical(v)) for k, v in params.items())),
        )

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default


class PlanCache:
    """LRU cache mapping :class:`Workload` -> execution plan.

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

    **Ownership and eviction.**  Every access is attributed to the owner
    tag installed by :func:`plan_owner` on the calling thread (``None``
    when untagged), and every resident entry remembers an owner.  Entry
    ownership *follows traffic*: the builder owns the entry initially, and
    every hit re-tags it to the accessing owner — so a plan built by model
    A but since consumed mostly by model B is shielded by B's (current)
    traffic weight and charged to B when it is finally evicted, instead of
    staying pinned to a builder that may have gone idle.  :meth:`owner_stats`
    reports per-owner hit/miss/build/eviction/size counts that sum exactly
    to the global :meth:`stats`.  Eviction is *traffic-weighted* LRU: when
    the cache overflows, the victim is chosen among the
    ``eviction_candidates`` least-recently-used entries as the one whose
    owner has the least (exponentially decayed) traffic — so a hot model's
    plans survive a cold model churning through the tail, while
    single-owner workloads degrade to exact LRU.

    **Per-owner floor.**  ``owner_floor=K`` reserves a hard quota: an entry
    whose owner holds ``K`` or fewer resident entries is never evicted, so
    a cold model keeps (at least) its last ``K`` plans no matter how hard a
    hot model churns the cache.  When every candidate is protected the scan
    widens over the full LRU order (still sparing the just-built MRU
    entry); only if *every* entry in the cache is protected — the floors
    alone exceed capacity — does eviction fall back to the unprotected
    traffic-weighted choice, because ``maxsize`` is a hard bound.
    """

    def __init__(
        self,
        maxsize: int = 1024,
        eviction_candidates: int = 8,
        traffic_decay_every: int = 4096,
        owner_floor: int = 0,
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        if eviction_candidates < 1:
            raise ValueError(
                f"eviction_candidates must be >= 1, got {eviction_candidates}"
            )
        if owner_floor < 0:
            raise ValueError(f"owner_floor must be >= 0, got {owner_floor}")
        self.maxsize = maxsize
        self.eviction_candidates = eviction_candidates
        self.traffic_decay_every = traffic_decay_every
        self.owner_floor = owner_floor
        self.hits = 0
        self.misses = 0
        self.builds = 0
        self.evictions = 0
        self._plans: OrderedDict[Workload, Any] = OrderedDict()
        self._entry_owner: dict[Workload, str | None] = {}
        self._owner_sizes: dict[str | None, int] = {}  # resident entries per owner
        self._owner_stats: dict[str | None, dict[str, int]] = {}
        self._traffic: dict[str | None, float] = {}  # decayed eviction weights
        self._accesses_since_decay = 0
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

    #: Decayed owner weights below this, with no resident entries, are pruned.
    TRAFFIC_EPSILON = 1e-3

    def _record_access(self, owner: str | None, kind: str) -> None:
        self._owner_acc(owner)[kind] += 1
        self._traffic[owner] = self._traffic.get(owner, 0.0) + 1.0
        self._accesses_since_decay += 1
        if self._accesses_since_decay >= self.traffic_decay_every:
            # Halve every owner's weight so "hot" tracks *recent* traffic: a
            # model that stopped receiving requests stops shielding its plans.
            # Owners whose weight has decayed to irrelevance and who hold no
            # resident entry are dropped entirely — otherwise ephemeral
            # owner names (per-request or per-test servers) grow this dict
            # without bound over the cache's lifetime.
            self._accesses_since_decay = 0
            for key in list(self._traffic):
                self._traffic[key] *= 0.5
                if (
                    self._traffic[key] < self.TRAFFIC_EPSILON
                    and self._owner_sizes.get(key, 0) <= 0
                ):
                    del self._traffic[key]
                    self._owner_sizes.pop(key, None)

    def _retag_entry(self, workload: Workload, owner: str | None) -> None:
        previous = self._entry_owner.get(workload)
        if workload in self._entry_owner and previous == owner:
            return
        if workload in self._entry_owner:
            self._owner_sizes[previous] = self._owner_sizes.get(previous, 1) - 1
        self._entry_owner[workload] = owner
        self._owner_sizes[owner] = self._owner_sizes.get(owner, 0) + 1

    def _floor_protected(self, workload: Workload) -> bool:
        owner = self._entry_owner.get(workload)
        return self._owner_sizes.get(owner, 0) <= self.owner_floor

    def _evict_one(self) -> None:
        """Drop the least-traffic-owner entry among the LRU candidates.

        The MRU entry is never a candidate: on the insert-overflow path it
        is the plan that was *just built*, and evicting it would doom a
        low-traffic owner on a small cache to a permanent build-evict-build
        cycle (miss churn with a 0% hit rate) whenever the cache is no
        larger than the candidate window.
        """
        window = min(self.eviction_candidates, len(self._plans) - 1)
        candidates = list(itertools.islice(self._plans, window))
        pool = candidates
        if self.owner_floor > 0:
            pool = [wl for wl in candidates if not self._floor_protected(wl)]
            if not pool:
                # Candidate window all floor-protected: widen over the full
                # LRU order (minus the just-built MRU entry) for the first
                # evictable entry.
                for wl in itertools.islice(self._plans, len(self._plans) - 1):
                    if not self._floor_protected(wl):
                        pool = [wl]
                        break
                else:
                    # Floors alone exceed capacity: maxsize is a hard bound,
                    # so fall back to the unprotected choice.
                    pool = candidates
        # min() is stable and the candidates iterate oldest-first, so ties
        # (same owner, or equal-traffic owners) fall back to exact LRU.
        victim = min(
            pool,
            key=lambda wl: self._traffic.get(self._entry_owner.get(wl), 0.0),
        )
        del self._plans[victim]
        owner = self._entry_owner.pop(victim, None)
        self._owner_sizes[owner] = self._owner_sizes.get(owner, 1) - 1
        self.evictions += 1
        self._owner_acc(owner)["evictions"] += 1

    # -- lookup ----------------------------------------------------------------

    def get_or_build(self, workload: Workload, builder: Callable[[], Any]) -> Any:
        owner = current_plan_owner()
        with self._cond:
            while True:
                if workload in self._plans:
                    self.hits += 1
                    self._record_access(owner, "hits")
                    self._plans.move_to_end(workload)
                    # Re-ownership on hit: the entry now belongs to whoever
                    # is actually consuming it (see class docstring).
                    self._retag_entry(workload, owner)
                    return self._plans[workload]
                if workload not in self._building:
                    # We own this build; everyone else arriving now waits.
                    self._building.add(workload)
                    self.misses += 1
                    self.builds += 1
                    acc = self._owner_acc(owner)
                    acc["builds"] += 1
                    self._record_access(owner, "misses")
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
                self._plans.move_to_end(workload)
                self._retag_entry(workload, owner)
                while len(self._plans) > self.maxsize:
                    self._evict_one()
            self._cond.notify_all()
        return plan

    # -- maintenance -----------------------------------------------------------

    def clear(self) -> None:
        with self._cond:
            self._epoch += 1
            self._plans.clear()
            self._entry_owner.clear()
            self._owner_sizes.clear()
            self._owner_stats.clear()
            self._traffic.clear()
            self._accesses_since_decay = 0
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
                self._evict_one()

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
        evictions and resident ``size`` by the entry's current owner (the
        builder until the first hit re-tags it to the consuming owner).

        Each global counter in :meth:`stats` equals the sum of the matching
        per-owner counter (untagged traffic lands on the ``None`` owner), so
        a multi-model router can reconcile its per-model view against the
        process-wide one.
        """
        with self._cond:
            out = {owner: dict(acc) for owner, acc in self._owner_stats.items()}
            for owner in self._entry_owner.values():
                if owner not in out:
                    out[owner] = {"hits": 0, "misses": 0, "builds": 0, "evictions": 0}
            for acc in out.values():
                acc["size"] = 0
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
