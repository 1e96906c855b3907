"""Scheduling-core policies: pure, clock-injected, zero threads/sleeps.

Every test drives the :mod:`repro.serve.sched` objects with explicit
``now`` values (a virtual clock), so the full decision sequence is
deterministic on any machine — the pattern the transports' own timing
tests converge on, and the reason these policies were extracted from the
thread/lock plumbing in the first place.
"""
import pytest

from repro.serve.sched import (
    AdmissionPolicy,
    BucketPolicy,
    FairnessPolicy,
    SchedCore,
    SchedRequest,
    ShedPolicy,
)

SHAPE = (3, 16, 16)


# ---------------------------------------------------------------------------
# AdmissionPolicy
# ---------------------------------------------------------------------------

def test_admission_bounds_and_counts():
    policy = AdmissionPolicy(max_pending=2)
    assert not policy.at_capacity(0) and not policy.at_capacity(1)
    assert policy.at_capacity(2) and policy.at_capacity(3)

    unbounded = AdmissionPolicy(None)
    assert not any(unbounded.at_capacity(n) for n in (0, 10**6))
    with pytest.raises(ValueError, match="max_pending"):
        AdmissionPolicy(0)


# ---------------------------------------------------------------------------
# BucketPolicy: EWMA arrival rate -> adaptive bucket target
# ---------------------------------------------------------------------------

def test_fixed_policy_always_targets_max_bucket():
    policy = BucketPolicy((1, 2, 4, 8), max_latency=0.01, adaptive=False)
    for t in (0.0, 0.001, 1.0):
        policy.observe_arrival(t)
    assert policy.target_bucket() == 8
    assert policy.fit_bucket(3) == 4 and policy.fit_bucket(64) == 8


def test_adaptive_bucket_grows_and_shrinks_across_load_ramp():
    # Simulated load ramp: sparse arrivals -> bucket 1; a heavy burst grows
    # the target toward the max; thinning traffic shrinks it back.  The
    # grow AND shrink sides both matter: a one-way ratchet would never
    # recover single-request latency after a burst.
    policy = BucketPolicy((1, 2, 4, 8), max_latency=0.01, adaptive=True)
    now = 0.0
    for _ in range(10):                   # light: 1 req/s
        policy.observe_arrival(now)
        now += 1.0
    assert policy.target_bucket() == 1

    targets = [policy.target_bucket()]
    for _ in range(200):                  # heavy: 1000 req/s
        policy.observe_arrival(now)
        now += 0.001
        targets.append(policy.target_bucket())
    assert policy.target_bucket() == 8    # 1000/s * 10ms window = 10 > 8
    assert targets == sorted(targets)     # monotone growth along the ramp

    shrink = []
    for _ in range(200):                  # back to light: 2 req/s
        policy.observe_arrival(now)
        now += 0.5
        shrink.append(policy.target_bucket())
    assert policy.target_bucket() == 1
    assert shrink == sorted(shrink, reverse=True)  # monotone decay

    # Steady load at fixed rates, a fresh policy per rate: the target is
    # monotone in load, 1 at light load and the largest bucket at
    # saturation.
    steady = []
    for rate in (10.0, 100.0, 1000.0, 5000.0, 20000.0):
        policy = BucketPolicy((1, 2, 4, 8), max_latency=0.01, adaptive=True)
        now = 0.0
        for _ in range(100):
            policy.observe_arrival(now)
            now += 1.0 / rate
        steady.append(policy.target_bucket())
    assert steady == sorted(steady)
    assert steady[0] == 1 and steady[-1] == 8


def test_adaptive_target_matches_rate_times_window():
    policy = BucketPolicy((1, 2, 4, 8), max_latency=0.01, adaptive=True)
    now = 0.0
    for _ in range(300):                  # 400 req/s steady
        policy.observe_arrival(now)
        now += 0.0025
    assert policy.arrival_rate() == pytest.approx(400.0, rel=0.01)
    # 400/s * 10ms = 4 expected batch-mates -> exactly the 4-bucket.
    assert policy.target_bucket() == 4


def test_bucket_policy_validation():
    with pytest.raises(ValueError, match="bucket_sizes"):
        BucketPolicy(())
    with pytest.raises(ValueError, match="max_latency"):
        BucketPolicy((1,), max_latency=0.0)
    with pytest.raises(ValueError, match="alpha"):
        BucketPolicy((1,), alpha=0.0)


# ---------------------------------------------------------------------------
# ShedPolicy: blown-budget detection
# ---------------------------------------------------------------------------

def _req(rid, deadline=None, arrived=0.0):
    return SchedRequest(id=rid, model="m", shape=SHAPE, arrived_at=arrived,
                        deadline=deadline)


def test_request_exactly_at_deadline_is_not_blown():
    policy = ShedPolicy("deadline")
    at = _req(0, deadline=5.0)
    assert not policy.blown(at, 5.0)      # the boundary is viable
    assert policy.blown(at, 5.0 + 1e-9)   # strictly past is not
    assert not policy.blown(_req(1, deadline=None), 1e18)  # no SLO, never


def test_exec_estimate_sharpens_blown_detection():
    # With a known batch execution time, a request whose remaining budget
    # cannot cover the execution is already blown *before* the deadline.
    policy = ShedPolicy("deadline")
    req = _req(0, deadline=5.0)
    assert not policy.blown(req, 3.0, 2.0)   # 3.0 + 2.0 == 5.0: still makes it
    assert policy.blown(req, 3.5, 2.0)       # 3.5 + 2.0 > 5.0: cannot make it
    assert not policy.blown(req, 3.5)        # no estimate: deadline not yet due
    viable, blown = policy.split_blown([_req(1, 10.0), _req(2, 4.0)], 3.0, 2.0)
    assert [r.id for r in viable] == [1] and [r.id for r in blown] == [2]


# ---------------------------------------------------------------------------
# FairnessPolicy: deficit round robin vs FIFO
# ---------------------------------------------------------------------------

def test_drr_splits_service_evenly_between_equal_flows():
    policy = FairnessPolicy("drr", quantum=4.0)
    served = {"a": 0, "b": 0}
    for _ in range(40):
        winner = policy.select({"a": (4.0, 0.0), "b": (4.0, 0.0)})
        served[winner] += 1
    assert served["a"] == served["b"] == 20


def test_drr_fairness_under_95_5_traffic_skew():
    # 95/5 skew with the heavy model's batches 8x the light model's cost:
    # DRR still serves the light flow every few selections (bounded service
    # gap), while FIFO lets the heavy backlog starve it.
    drr = FairnessPolicy("drr", quantum=8.0)
    gap, last_light, selections = [], 0, []
    for step in range(400):
        # Both flows always have work (the skew shows up as cost, not
        # presence): heavy batches cost 8, light ones 1.
        winner = drr.select({"heavy": (8.0, 0.0), "light": (1.0, 0.1)})
        selections.append(winner)
        if winner == "light":
            gap.append(step - last_light)
            last_light = step
    light_share = selections.count("light") / len(selections)
    # Equal quanta -> equal *cost* shares: the light flow wins ~8x more
    # selections (each 8x cheaper).  It must never wait long.
    assert light_share == pytest.approx(8 / 9, abs=0.05)
    assert max(gap) <= 3

    fifo = FairnessPolicy("fifo")
    # FIFO always serves the older head: a standing heavy backlog (arrived
    # earlier forever) starves the light flow completely.
    for _ in range(50):
        assert fifo.select({"heavy": (8.0, 0.0), "light": (1.0, 0.1)}) == "heavy"


def test_drr_departed_flow_forfeits_deficit():
    # A flow that goes idle leaves the round; returning, it starts with
    # zero credit (no bursting on banked deficit) — standard DRR.
    policy = FairnessPolicy("drr", quantum=2.0)
    for _ in range(6):
        policy.select({"a": (2.0, 0.0), "b": (2.0, 0.0)})
    assert policy.select({"b": (2.0, 0.0)}) == "b"   # a departs
    assert policy.deficit("a") == 0.0
    policy.select({"a": (2.0, 0.0), "b": (2.0, 0.0)})  # a rejoins at the tail
    assert policy.deficit("a") <= policy.quantum


def test_fairness_select_empty_and_validation():
    assert FairnessPolicy("drr").select({}) is None
    with pytest.raises(ValueError, match="mode"):
        FairnessPolicy("priority")
    with pytest.raises(ValueError, match="quantum"):
        FairnessPolicy("drr", quantum=0.0)


# ---------------------------------------------------------------------------
# SchedCore: the composite the transports drive
# ---------------------------------------------------------------------------

def _core(**kwargs):
    defaults = dict(bucket_sizes=(1, 2, 4), max_latency=0.01,
                    adaptive_buckets=False, shed_policy="deadline",
                    fairness="drr")
    defaults.update(kwargs)
    return SchedCore(**defaults)


def test_core_batches_on_full_bucket_and_deadline():
    core = _core()
    core.add_model("m")
    for i in range(3):
        core.submit("m", SHAPE, now=0.001 * i)
    assert core.next_batch(now=0.005) is None          # 3 < max bucket 4
    batch = core.next_batch(now=0.012)                 # head aged past 10ms
    assert batch is not None and len(batch.requests) == 3
    assert batch.bucket == 4                           # padded to the fit
    assert core.pending_count() == 0

    for i in range(5):
        core.submit("m", SHAPE, now=1.0)
    batch = core.next_batch(now=1.0)                   # full trigger, no age
    assert len(batch.requests) == 4 and batch.bucket == 4
    assert core.next_batch(now=1.0) is None            # remainder waits
    assert core.next_batch(now=1.0, force=True) is not None  # drain takes it


def test_core_next_event_announces_flush_and_shed_times():
    core = _core()
    core.add_model("m")
    core.submit("m", SHAPE, now=0.0, deadline=0.004)
    # Earliest decision point: the deadline (0.004) beats the flush (0.010).
    assert core.next_event(now=0.0) == pytest.approx(0.004)
    core.shed_blown(now=0.005)
    assert core.next_event(now=0.005) is None          # queue emptied
    core.submit("m", SHAPE, now=1.0)
    assert core.next_event(now=1.0) == pytest.approx(1.010)


def test_core_displaces_blown_victims_at_capacity():
    core = _core(max_pending=2)
    core.add_model("m")
    core.submit("m", SHAPE, now=0.0, deadline=0.5)
    core.submit("m", SHAPE, now=0.0, deadline=100.0)
    # At capacity with one blown victim: the newcomer displaces it.
    outcome = core.submit("m", SHAPE, now=1.0, deadline=100.0)
    assert outcome.accepted and outcome.request is not None
    assert [v.id for v in outcome.displaced] == [0]
    assert core.pending_count("m") == 2
    # At capacity with only viable work: backpressure rejects the newcomer.
    outcome = core.submit("m", SHAPE, now=1.0, deadline=100.0)
    assert not outcome.accepted and outcome.request is None
    assert outcome.displaced == []
    assert core.pending_count("m") == 2


def test_core_newest_policy_never_displaces():
    core = _core(max_pending=1, shed_policy="newest")
    core.add_model("m")
    core.submit("m", SHAPE, now=0.0, deadline=0.5)     # will blow its budget
    outcome = core.submit("m", SHAPE, now=1.0, deadline=100.0)
    assert not outcome.accepted                        # tail-drop: newest loses
    assert core.shed_blown(now=1.0) == []              # no deadline shed either
    assert core.pending_count() == 1


def test_core_drr_interleaves_models_fifo_does_not():
    def fill(core):
        core.add_model("heavy", request_cost=8.0)
        core.add_model("light", request_cost=1.0)
        for i in range(8):
            core.submit("heavy", SHAPE, now=0.0)
        for i in range(8):
            core.submit("light", SHAPE, now=0.001)
        order = []
        while True:
            batch = core.next_batch(now=1.0)
            if batch is None:
                break
            order.append(batch.model)
        return order

    drr_order = fill(_core(fairness="drr", quantum=8.0))
    fifo_order = fill(_core(fairness="fifo"))
    assert fifo_order == ["heavy", "heavy", "light", "light"]  # arrival order
    # DRR charges the heavy model 8x per slot, so the light model is served
    # before the heavy backlog clears.
    assert drr_order.index("light") < drr_order.index("heavy", 1)


def test_core_shed_all_and_registration_errors():
    core = _core()
    core.add_model("m")
    for i in range(3):
        core.submit("m", SHAPE, now=0.0)
    victims = core.shed_all()
    assert len(victims) == 3 and core.pending_count() == 0
    with pytest.raises(ValueError, match="registered"):
        core.add_model("m")
    with pytest.raises(KeyError, match="no model"):
        core.submit("ghost", SHAPE, now=0.0)
