"""PlanCache eviction policy + per-owner accounting regressions.

Until the multi-model router, nothing ever drove the cache to its
``maxsize`` bound — these tests pin down the LRU semantics that the bound
implies (re-touch ordering, eviction at exactly capacity), the per-owner
counters the router's metrics are built on (they must sum to the global
counters), the traffic-weighted victim selection that keeps a hot model's
plans resident, and ``clear()``'s epoch behaviour with builds in flight.
A hypothesis state machine drives random ``get_or_build`` / ``resize`` /
``clear`` sequences from random owners against the same invariants.
"""
import threading
import time

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


def test_single_owner_eviction_degrades_to_exact_lru():
    cache = PlanCache(maxsize=2)
    fill(cache, range(6), owner="only")
    assert wl(4) in cache and wl(5) in cache


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
# Traffic-weighted eviction: hot owners resist cold-owner churn
# ---------------------------------------------------------------------------

def test_hot_owner_plans_survive_cold_owner_churn():
    cache = PlanCache(maxsize=4)
    fill(cache, [0, 1], owner="hot")
    with plan_owner("hot"):                 # hot traffic: many re-touches
        for _ in range(50):
            cache.get_or_build(wl(0), lambda: "x")
            cache.get_or_build(wl(1), lambda: "x")
    fill(cache, [10, 11], owner="cold")     # cache now full; hot entries are LRU
    fill(cache, [12, 13], owner="cold")     # overflow: victims must be cold's
    assert wl(0) in cache and wl(1) in cache
    assert wl(10) not in cache and wl(11) not in cache
    owners = cache.owner_stats()
    assert owners["cold"]["evictions"] == 2
    assert owners["hot"]["evictions"] == 0


def test_fresh_cold_build_is_never_its_own_eviction_victim():
    # Regression: when the cache is no larger than the candidate window,
    # the just-inserted MRU entry used to be a candidate — a low-traffic
    # owner's brand-new plan could be evicted immediately, dooming it to a
    # permanent build-evict-build cycle with a 0% hit rate.
    cache = PlanCache(maxsize=4, eviction_candidates=8)
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
    # Control for the test above: with equal traffic the same access
    # pattern evicts the oldest entries regardless of owner.
    cache = PlanCache(maxsize=4)
    fill(cache, [0, 1], owner="a")
    fill(cache, [10, 11], owner="b")
    fill(cache, [12, 13], owner="b")
    assert wl(0) not in cache and wl(1) not in cache


def test_traffic_decay_lets_a_gone_cold_owner_lose_protection():
    cache = PlanCache(maxsize=4, traffic_decay_every=16)
    fill(cache, [0, 1], owner="was-hot")
    with plan_owner("was-hot"):
        for _ in range(8):
            cache.get_or_build(wl(0), lambda: "x")
            cache.get_or_build(wl(1), lambda: "x")
    # "was-hot" stops submitting; steady "now-hot" traffic decays its weight.
    fill(cache, [10, 11], owner="now-hot")
    with plan_owner("now-hot"):
        for _ in range(40):
            cache.get_or_build(wl(10), lambda: "x")
            cache.get_or_build(wl(11), lambda: "x")
    fill(cache, [12, 13], owner="now-hot")
    # After decay, was-hot's stale weight no longer outranks live traffic:
    # its idle entries are the victims even though now-hot built most
    # recently.
    assert wl(0) not in cache and wl(1) not in cache
    assert wl(10) in cache and wl(11) in cache


# ---------------------------------------------------------------------------
# Entry re-ownership on hit: shared workloads follow their consumers
# ---------------------------------------------------------------------------

def test_entry_reowned_on_hit_protects_shared_workload():
    # A plan built by one model but since hit mostly by another must be
    # shielded by the *consumer's* traffic: ownership re-tags on access.
    cache = PlanCache(maxsize=4)
    fill(cache, [0], owner="builder")
    with plan_owner("consumer"):                # the actual hot consumer
        for _ in range(50):
            cache.get_or_build(wl(0), lambda: "never rebuilt")
    fill(cache, [1, 2, 3], owner="builder")     # cache now full
    fill(cache, [4, 5], owner="builder")        # overflow twice
    assert wl(0) in cache                       # consumer traffic shields it
    owners = cache.owner_stats()
    assert owners["consumer"]["size"] == 1      # entry followed the consumer
    assert owners["builder"]["evictions"] == 2  # builder's own churn paid
    assert owners["consumer"]["evictions"] == 0


def test_eviction_charged_to_current_owner_after_retag():
    cache = PlanCache(maxsize=2)
    fill(cache, [0], owner="a")
    with plan_owner("b"):
        cache.get_or_build(wl(0), lambda: "x")  # one touch re-tags a -> b
    fill(cache, [1, 2], owner="a")              # overflow: victim is b's now
    owners = cache.owner_stats()
    assert wl(0) not in cache
    assert owners["b"]["evictions"] == 1
    assert owners["a"]["evictions"] == 0


def test_untagged_hit_releases_entry_to_the_none_owner():
    # Re-ownership is symmetric: an untagged client touching a served plan
    # moves it to the None owner (and None traffic then weighs for it).
    cache = PlanCache(maxsize=4)
    fill(cache, [0], owner="served")
    cache.get_or_build(wl(0), lambda: "x")      # untagged accessor
    owners = cache.owner_stats()
    assert owners[None]["size"] == 1
    assert owners["served"]["size"] == 0


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


def test_eviction_attributed_to_owner_of_evicted_entry():
    cache = PlanCache(maxsize=2)
    fill(cache, [0], owner="a")
    fill(cache, [1, 2], owner="b")   # evicts a's entry
    owners = cache.owner_stats()
    assert owners["a"]["evictions"] == 1
    assert owners["b"]["evictions"] == 0
    assert owners["a"]["size"] == 0 and owners["b"]["size"] == 2


# ---------------------------------------------------------------------------
# Per-owner floor: a hard residency quota under cross-model churn
# ---------------------------------------------------------------------------

def test_owner_floor_keeps_exact_floor_under_hot_churn():
    # A cold model holding more than its floor loses entries oldest-first
    # down to *exactly* the floor, then becomes untouchable: the remaining
    # churn is paid by the hot owner itself.
    cache = PlanCache(maxsize=6, owner_floor=2)
    fill(cache, [0, 1, 2, 3], owner="cold")
    fill(cache, range(10, 30), owner="hot")       # 20 builds of hot churn
    owners = cache.owner_stats()
    assert owners["cold"]["size"] == 2
    assert wl(2) in cache and wl(3) in cache      # the MRU two survived
    assert wl(0) not in cache and wl(1) not in cache
    assert owners["cold"]["evictions"] == 2       # down to the floor, no more
    assert owners["hot"]["evictions"] == cache.stats()["evictions"] - 2
    assert cache.stats()["size"] == 6             # maxsize stays a hard bound


def test_owner_floor_zero_gives_no_protection():
    # Control: the identical churn with the default floor evicts the cold
    # owner completely (traffic-weighted victim selection alone).
    cache = PlanCache(maxsize=6, owner_floor=0)
    fill(cache, [0, 1, 2, 3], owner="cold")
    fill(cache, range(10, 30), owner="hot")
    assert cache.owner_stats()["cold"]["size"] == 0


def test_owner_floor_widens_scan_past_protected_candidates():
    # The candidate window holds only floor-protected entries: eviction
    # must widen over the full LRU order and take the first evictable
    # entry instead of violating a floor.
    cache = PlanCache(maxsize=4, eviction_candidates=2, owner_floor=2)
    fill(cache, [0, 1], owner="a")        # LRU head; a is at its floor
    fill(cache, [10, 11], owner="b")
    fill(cache, [12], owner="b")          # overflow; window = a's entries
    assert wl(0) in cache and wl(1) in cache
    assert wl(10) not in cache            # b's own oldest paid instead
    assert wl(11) in cache and wl(12) in cache
    owners = cache.owner_stats()
    assert owners["a"]["evictions"] == 0 and owners["b"]["evictions"] == 1


def test_owner_floor_everything_protected_falls_back_to_lru():
    # Floors alone exceed capacity: maxsize is the harder bound, so the
    # eviction falls back to the unprotected (traffic-then-LRU) choice.
    cache = PlanCache(maxsize=2, owner_floor=2)
    fill(cache, [0], owner="a")
    fill(cache, [1], owner="b")
    fill(cache, [2], owner="c")           # every resident entry protected
    stats = cache.stats()
    assert stats["size"] == 2 and stats["evictions"] == 1
    assert wl(0) not in cache             # equal traffic: exact-LRU victim


def test_owner_floor_protection_follows_retag():
    # Floor accounting rides the same per-owner sizes re-ownership updates:
    # an entry retagged to its consumer counts against the *consumer's*
    # floor and is shielded as such.
    cache = PlanCache(maxsize=4, owner_floor=1)
    fill(cache, [0], owner="builder")
    with plan_owner("consumer"):
        cache.get_or_build(wl(0), lambda: "never rebuilt")   # retag
    fill(cache, [1, 2, 3], owner="churner")   # full
    fill(cache, [4, 5], owner="churner")      # overflow twice
    assert wl(0) in cache                     # consumer's floor of one holds
    owners = cache.owner_stats()
    assert owners["consumer"]["size"] == 1
    assert owners["churner"]["evictions"] == 2


def test_owner_floor_validation():
    with pytest.raises(ValueError, match="owner_floor"):
        PlanCache(owner_floor=-1)


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
# Traffic-map pruning: ephemeral owners must not accumulate forever
# ---------------------------------------------------------------------------

def test_traffic_map_prunes_ephemeral_owners():
    # Regression: decay halved weights but never removed owners, so a
    # long-lived cache visited by per-request/per-test owner names grew its
    # traffic dict without bound.  Owners whose weight decays below the
    # epsilon *and* who hold no resident entry must be dropped.
    cache = PlanCache(maxsize=4, traffic_decay_every=8)
    fill(cache, [1, 2], owner="resident")
    for i in range(200):
        with plan_owner(f"ephemeral-{i}"):
            cache.get_or_build(wl(0), lambda: "shared")
    # Steady resident traffic drives enough decay rounds that every
    # ephemeral weight (~1 access each) sinks below the epsilon.
    with plan_owner("resident"):
        for _ in range(200):
            cache.get_or_build(wl(1), lambda: "x")
    survivors = set(cache._traffic)
    # Only live traffic and owners still holding a resident entry remain:
    # wl(0) was re-tagged to its last accessor, which keeps that one owner
    # (the resident-entry guard), while the other 199 are pruned.
    assert survivors == {"resident", "ephemeral-199"}
    # The size table is pruned in step: no zero-entry owners linger.
    assert set(cache._owner_sizes) <= survivors | {None}


def test_traffic_prune_never_drops_owner_with_resident_entries():
    cache = PlanCache(maxsize=4, traffic_decay_every=4)
    fill(cache, [0], owner="idle-holder")
    # idle-holder never submits again; a hot owner drives many decays.
    fill(cache, [1], owner="hot")
    with plan_owner("hot"):
        for _ in range(100):
            cache.get_or_build(wl(1), lambda: "x")
    assert cache._traffic.get("idle-holder", 0.0) < PlanCache.TRAFFIC_EPSILON
    assert "idle-holder" in cache._traffic          # entry keeps it alive
    assert cache._owner_sizes["idle-holder"] == 1
    assert wl(0) in cache


# ---------------------------------------------------------------------------
# Stateful model: random lookups, resizes and clears from random owners
# ---------------------------------------------------------------------------

OWNERS = st.sampled_from([None, "a", "b", "c"])
KEYS = st.integers(min_value=0, max_value=11)
COUNTERS = ("hits", "misses", "builds", "evictions")


class _BuildFailed(RuntimeError):
    pass


class PlanCacheMachine(RuleBasedStateMachine):
    """The cache's accounting and bound hold under any operation sequence.

    ``plans`` mirrors which value each key was built with, so a hit must
    return exactly the plan its builder produced, and a failed build must
    leave no entry behind.
    """

    @initialize(
        maxsize=st.integers(min_value=1, max_value=6),
        candidates=st.integers(min_value=1, max_value=8),
        floor=st.integers(min_value=0, max_value=2),
        decay_every=st.integers(min_value=2, max_value=16),
    )
    def make_cache(self, maxsize, candidates, floor, decay_every):
        self.cache = PlanCache(
            maxsize=maxsize,
            eviction_candidates=candidates,
            owner_floor=floor,
            traffic_decay_every=decay_every,
        )
        self.plans: dict[int, object] = {}

    @rule(key=KEYS, owner=OWNERS)
    def get_or_build(self, key, owner):
        resident = wl(key) in self.cache
        before = self.cache.stats()
        plan = object()
        with plan_owner(owner):
            got = self.cache.get_or_build(wl(key), lambda: plan)
        after = self.cache.stats()
        if resident:
            assert got is self.plans[key]
            assert after["hits"] == before["hits"] + 1
            assert after["builds"] == before["builds"]
        else:
            assert got is plan
            assert after["builds"] == before["builds"] + 1
            self.plans[key] = plan

    @rule(key=KEYS, owner=OWNERS)
    def failing_build(self, key, owner):
        resident = wl(key) in self.cache
        size = len(self.cache)

        def boom():
            raise _BuildFailed(key)

        with plan_owner(owner):
            if resident:
                assert self.cache.get_or_build(wl(key), boom) is self.plans[key]
            else:
                with pytest.raises(_BuildFailed):
                    self.cache.get_or_build(wl(key), boom)
                assert wl(key) not in self.cache
                assert len(self.cache) == size

    @rule(maxsize=st.integers(min_value=1, max_value=6))
    def resize(self, maxsize):
        size = len(self.cache)
        self.cache.resize(maxsize)
        assert len(self.cache) == min(size, maxsize)

    @precondition(lambda self: len(self.cache) > 0)
    @rule()
    def clear(self):
        self.cache.clear()
        assert self.cache.stats() == {
            "size": 0, "hits": 0, "misses": 0, "builds": 0,
            "evictions": 0, "in_flight": 0,
        }

    @invariant()
    def bounded(self):
        assert len(self.cache) <= self.cache.maxsize

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
