"""PlanCache eviction policy + per-owner accounting regressions.

Until the multi-model router, nothing ever drove the cache to its
``maxsize`` bound — these tests pin down the LRU semantics that the bound
implies (re-touch ordering, eviction at exactly capacity, victims chosen
by recency alone whoever owns them), the per-owner counters the router's
metrics are built on (they must sum to the global counters, with
evictions charged to the entry's builder), and ``clear()``'s epoch
behaviour with builds in flight.  A hypothesis state machine drives random
``get_or_build`` / ``resize`` / ``clear`` sequences from random owners
against a shadow LRU model of the same cache.
"""
import threading
from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.backend import Workload, plan_owner
from repro.backend.workload import PlanCache


def wl(i: int) -> Workload:
    return Workload.make("evict", (i,))


def fill(cache: PlanCache, indices, owner: str | None = None):
    with plan_owner(owner):
        for i in indices:
            cache.get_or_build(wl(i), lambda i=i: f"plan-{i}")


# ---------------------------------------------------------------------------
# LRU order and the maxsize bound
# ---------------------------------------------------------------------------

def test_get_or_build_retouch_updates_lru_order():
    cache = PlanCache(maxsize=2)
    fill(cache, [0, 1])
    cache.get_or_build(wl(0), lambda: "never built")  # hit: 0 becomes MRU
    fill(cache, [2])                                  # overflow: 1 is LRU now
    assert wl(0) in cache and wl(2) in cache
    assert wl(1) not in cache
    assert cache.stats()["evictions"] == 1


def test_no_eviction_at_exactly_maxsize():
    cache = PlanCache(maxsize=4)
    fill(cache, range(4))
    stats = cache.stats()
    assert stats["size"] == 4 and stats["evictions"] == 0
    fill(cache, [4])  # one past capacity: exactly one eviction
    stats = cache.stats()
    assert stats["size"] == 4 and stats["evictions"] == 1
    assert wl(0) not in cache  # the LRU entry went


def test_eviction_bound_holds_under_churn():
    cache = PlanCache(maxsize=3)
    fill(cache, range(20))
    stats = cache.stats()
    assert stats["size"] == len(cache) == 3
    assert stats["evictions"] == 17
    # size always reconciles with builds - evictions when nothing was cleared
    assert stats["size"] == stats["builds"] - stats["evictions"]


def test_multi_owner_eviction_is_exact_lru():
    # The victim is the least recently used entry, whoever built it and
    # however much traffic its builder has sent.
    cache = PlanCache(maxsize=3)
    fill(cache, [0], owner="hot")
    with plan_owner("hot"):
        for _ in range(50):
            cache.get_or_build(wl(0), lambda: "never rebuilt")
    fill(cache, [1], owner="cold")
    fill(cache, [2], owner="warm")
    with plan_owner("hot"):                  # order now 0, 2, 1
        cache.get_or_build(wl(1), lambda: "never rebuilt")
    fill(cache, [3], owner="cold")           # evicts 0 despite hot's traffic
    assert wl(0) not in cache
    fill(cache, [4], owner="cold")           # evicts 2
    assert [i for i in range(5) if wl(i) in cache] == [1, 3, 4]
    owners = cache.owner_stats()
    assert owners["hot"]["evictions"] == 1 and owners["warm"]["evictions"] == 1
    assert owners["cold"]["evictions"] == 0


def test_resize_shrinks_in_place_and_counts_evictions():
    cache = PlanCache(maxsize=8)
    fill(cache, range(8))
    cache.resize(3)
    stats = cache.stats()
    assert stats["size"] == 3 and cache.maxsize == 3
    assert stats["evictions"] == 5
    assert all(wl(i) in cache for i in (5, 6, 7))  # MRU tail survives
    cache.resize(8)
    fill(cache, range(8))  # regrowing admits new entries again
    assert cache.stats()["size"] == 8
    with pytest.raises(ValueError, match="maxsize"):
        cache.resize(0)


# ---------------------------------------------------------------------------
# Builds by a low-traffic owner next to a hot one
# ---------------------------------------------------------------------------

def test_fresh_cold_build_is_never_its_own_eviction_victim():
    # The just-inserted entry is the MRU one, so an overflow never evicts
    # it: a low-traffic owner's brand-new plan survives to be hit, instead
    # of being doomed to a build-evict-build cycle with a 0% hit rate.
    cache = PlanCache(maxsize=4)
    fill(cache, range(4), owner="hot")
    with plan_owner("hot"):
        for _ in range(50):
            for i in range(4):
                cache.get_or_build(wl(i), lambda: "x")
    fill(cache, [10], owner="cold")
    assert wl(10) in cache                   # the fresh build survived
    with plan_owner("cold"):
        cache.get_or_build(wl(10), lambda: "never rebuilt")
    owners = cache.owner_stats()
    assert owners["cold"] == {"hits": 1, "misses": 1, "builds": 1,
                              "evictions": 0, "size": 1}


def test_pure_lru_would_have_evicted_the_hot_entries():
    # Owners do not shield entries: the same access pattern evicts the
    # oldest entries whoever built them.
    cache = PlanCache(maxsize=4)
    fill(cache, [0, 1], owner="a")
    fill(cache, [10, 11], owner="b")
    fill(cache, [12, 13], owner="b")
    assert wl(0) not in cache and wl(1) not in cache


# ---------------------------------------------------------------------------
# Per-owner stats reconcile with the global counters
# ---------------------------------------------------------------------------

def test_owner_stats_sum_to_global_stats():
    cache = PlanCache(maxsize=3)
    fill(cache, [0, 1], owner="a")
    fill(cache, [1, 2, 3], owner="b")      # b hits a's plan 1, builds 2, 3
    cache.get_or_build(wl(3), lambda: "x")  # untagged hit -> owner None
    stats = cache.stats()
    owners = cache.owner_stats()
    assert set(owners) == {"a", "b", None}
    for key in ("hits", "misses", "builds", "evictions"):
        assert sum(acc[key] for acc in owners.values()) == stats[key], key
    assert sum(acc["size"] for acc in owners.values()) == stats["size"]
    # Access attribution goes to the accessor, entry ownership to the builder.
    assert owners["b"]["hits"] == 1 and owners["b"]["builds"] == 2
    assert owners[None]["hits"] == 1 and owners[None]["builds"] == 0


def test_eviction_charged_to_builder_not_to_a_later_accessor():
    cache = PlanCache(maxsize=2)
    fill(cache, [0], owner="a")
    with plan_owner("b"):
        cache.get_or_build(wl(0), lambda: "x")  # b's hit leaves a the owner
    cache.get_or_build(wl(0), lambda: "x")      # so does an untagged hit
    owners = cache.owner_stats()
    assert owners["a"]["size"] == 1
    assert owners["b"]["size"] == owners[None]["size"] == 0
    assert owners["b"]["hits"] == owners[None]["hits"] == 1
    fill(cache, [1, 2], owner="c")              # overflow: 0 is the LRU entry
    owners = cache.owner_stats()
    assert wl(0) not in cache
    assert owners["a"]["evictions"] == 1
    assert owners["b"]["evictions"] == owners[None]["evictions"] == 0


def test_eviction_attributed_to_owner_of_evicted_entry():
    cache = PlanCache(maxsize=2)
    fill(cache, [0], owner="a")
    fill(cache, [1, 2], owner="b")   # evicts a's entry
    owners = cache.owner_stats()
    assert owners["a"]["evictions"] == 1
    assert owners["b"]["evictions"] == 0
    assert owners["a"]["size"] == 0 and owners["b"]["size"] == 2


# ---------------------------------------------------------------------------
# clear() epoch behaviour with in-flight builds
# ---------------------------------------------------------------------------

def test_clear_resets_eviction_and_owner_accounting():
    cache = PlanCache(maxsize=2)
    fill(cache, range(4), owner="a")
    assert cache.stats()["evictions"] == 2
    cache.clear()
    stats = cache.stats()
    assert stats == {"size": 0, "hits": 0, "misses": 0, "builds": 0,
                     "evictions": 0, "in_flight": 0}
    assert cache.owner_stats() == {}


def test_clear_during_inflight_build_keeps_owner_table_consistent():
    # The epoch check must also keep the *owner* bookkeeping out: a plan
    # whose insert was invalidated by clear() must not leave a dangling
    # per-owner size entry.
    cache = PlanCache(maxsize=4)
    release = threading.Event()

    def runner():
        with plan_owner("racer"):
            cache.get_or_build(wl(0), lambda: release.wait(2.0) or "plan")

    thread = threading.Thread(target=runner)
    thread.start()
    from tests.helpers import wait_for

    wait_for(lambda: cache.stats()["in_flight"])  # the build is in flight
    cache.clear()
    release.set()
    thread.join()
    assert wl(0) not in cache
    owners = cache.owner_stats()
    assert sum(acc["size"] for acc in owners.values()) == 0
    # The post-clear cache still works and re-attributes fresh traffic.
    fill(cache, [0], owner="racer")
    assert cache.owner_stats()["racer"]["size"] == 1


# ---------------------------------------------------------------------------
# Stateful model: random lookups, resizes and clears from random owners
# ---------------------------------------------------------------------------

OWNERS = st.sampled_from([None, "a", "b", "c"])
NUM_KEYS = 12
KEYS = st.integers(min_value=0, max_value=NUM_KEYS - 1)
COUNTERS = ("hits", "misses", "builds", "evictions")


class _BuildFailed(RuntimeError):
    pass


class PlanCacheMachine(RuleBasedStateMachine):
    """The cache behaves as an exact, builder-charged LRU under any
    operation sequence.

    ``plans`` mirrors which value each key was built with, so a hit must
    return exactly the plan its builder produced, and a failed build must
    leave no entry behind.  ``order`` is a shadow recency list (least
    recently used first) and ``builder`` the owner that built each resident
    key: every overflow and every ``resize`` must evict exactly the keys
    the shadow predicts, each eviction charged to that key's builder.
    """

    @initialize(maxsize=st.integers(min_value=1, max_value=6))
    def make_cache(self, maxsize):
        self.cache = PlanCache(maxsize=maxsize)
        self.plans: dict[int, object] = {}
        self.order: list[int] = []
        self.builder: dict[int, str | None] = {}

    def _touch(self, key):
        self.order.remove(key)
        self.order.append(key)

    def _evict_predicted(self, before: dict) -> None:
        """Drop the shadow's LRU keys down to ``maxsize`` and check that the
        cache evicted exactly those, charged to their builders."""
        victims = []
        while len(self.order) > self.cache.maxsize:
            victims.append(self.order.pop(0))
        assert not any(wl(key) in self.cache for key in victims), victims
        charged = Counter()
        for owner, acc in self.cache.owner_stats().items():
            grew = acc["evictions"] - before.get(owner, {}).get("evictions", 0)
            if grew:
                charged[owner] = grew
        assert charged == Counter(self.builder.pop(key) for key in victims), (
            charged, victims,
        )

    @rule(key=KEYS, owner=OWNERS)
    def get_or_build(self, key, owner):
        resident = wl(key) in self.cache
        before = self.cache.stats()
        owners_before = self.cache.owner_stats()
        plan = object()
        with plan_owner(owner):
            got = self.cache.get_or_build(wl(key), lambda: plan)
        after = self.cache.stats()
        if resident:
            assert got is self.plans[key]
            assert after["hits"] == before["hits"] + 1
            assert after["builds"] == before["builds"]
            assert after["evictions"] == before["evictions"]
            self._touch(key)
        else:
            assert got is plan
            assert after["builds"] == before["builds"] + 1
            self.plans[key] = plan
            self.order.append(key)
            self.builder[key] = owner
            self._evict_predicted(owners_before)

    @rule(key=KEYS, owner=OWNERS)
    def failing_build(self, key, owner):
        resident = wl(key) in self.cache
        size = len(self.cache)

        def boom():
            raise _BuildFailed(key)

        with plan_owner(owner):
            if resident:
                assert self.cache.get_or_build(wl(key), boom) is self.plans[key]
                self._touch(key)
            else:
                with pytest.raises(_BuildFailed):
                    self.cache.get_or_build(wl(key), boom)
                assert wl(key) not in self.cache
                assert len(self.cache) == size

    @rule(maxsize=st.integers(min_value=1, max_value=6))
    def resize(self, maxsize):
        owners_before = self.cache.owner_stats()
        self.cache.resize(maxsize)
        self._evict_predicted(owners_before)

    @precondition(lambda self: len(self.cache) > 0)
    @rule()
    def clear(self):
        self.cache.clear()
        self.order.clear()
        self.builder.clear()
        assert self.cache.stats() == {
            "size": 0, "hits": 0, "misses": 0, "builds": 0,
            "evictions": 0, "in_flight": 0,
        }

    @invariant()
    def bounded(self):
        assert len(self.cache) <= self.cache.maxsize

    @invariant()
    def resident_keys_match_shadow(self):
        resident = [key for key in range(NUM_KEYS) if wl(key) in self.cache]
        assert resident == sorted(self.order)
        sizes = {owner: acc["size"]
                 for owner, acc in self.cache.owner_stats().items()
                 if acc["size"]}
        assert sizes == Counter(self.builder.values())

    @invariant()
    def misses_equal_builds(self):
        stats = self.cache.stats()
        assert stats["misses"] == stats["builds"]
        assert stats["in_flight"] == 0

    @invariant()
    def owner_counters_sum_to_global(self):
        stats = self.cache.stats()
        per_owner = self.cache.owner_stats()
        for counter in COUNTERS + ("size",):
            assert sum(acc[counter] for acc in per_owner.values()) == stats[counter], (
                counter, stats, per_owner,
            )


def test_plan_cache_state_machine():
    machine = PlanCacheMachine.TestCase
    machine.settings = settings(
        max_examples=60, stateful_step_count=40, deadline=None,
    )
    machine().runTest()
