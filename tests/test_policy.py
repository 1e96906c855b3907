"""ServingPolicy: the one config dataclass every serving transport takes.

The contract: defaults keep the sync transports' historical behaviour,
validation happens once here, a policy pickles, and ``config=None``
means ``ServingPolicy()`` on every transport.
"""
import pickle

import numpy as np
import pytest

from repro.serve import AsyncGateway, BucketPolicy, Server, ServingPolicy
from repro.serve.sched import RetryPolicy, SchedCore


# ---------------------------------------------------------------------------
# The shared dataclass
# ---------------------------------------------------------------------------

def test_policy_defaults_match_legacy_server_defaults():
    policy = ServingPolicy()
    assert policy.bucket_sizes == (1, 2, 4, 8)
    assert policy.max_latency == 0.01
    assert policy.max_pending is None
    assert policy.adaptive_buckets is False
    assert policy.shed_policy == "newest"
    assert policy.retry is None
    assert policy.isolate_failures is True
    assert policy.breaker_window is None
    assert policy.degrade_after is None


def test_policy_validation():
    with pytest.raises(ValueError, match="bucket_sizes"):
        ServingPolicy(bucket_sizes=())
    with pytest.raises(ValueError, match="bucket_sizes"):
        ServingPolicy(bucket_sizes=(0, 2))
    with pytest.raises(ValueError, match="max_latency"):
        ServingPolicy(max_latency=0.0)
    with pytest.raises(ValueError, match="max_pending"):
        ServingPolicy(max_pending=0)
    with pytest.raises(ValueError, match="shed_policy"):
        ServingPolicy(shed_policy="oldest")
    with pytest.raises(ValueError, match="shed_policy"):
        ServingPolicy(shed_policy=None)
    with pytest.raises(ValueError, match="breaker_window"):
        ServingPolicy(breaker_window=0)
    with pytest.raises(ValueError, match="degrade_after"):
        ServingPolicy(degrade_after=0)


def test_policy_sorts_and_dedups_buckets():
    assert ServingPolicy(bucket_sizes=(8, 2, 2, 4)).bucket_sizes == (2, 4, 8)


def test_policy_bucket_helpers():
    # The policy's buckets, as the core's BucketPolicy pads to them.
    buckets = BucketPolicy(ServingPolicy(bucket_sizes=(2, 4, 8)).bucket_sizes)
    assert buckets.max_bucket == 8
    assert buckets.fit_bucket(1) == 2
    assert buckets.fit_bucket(3) == 4
    assert buckets.fit_bucket(9) == 8


def test_make_breaker_mirrors_knobs():
    assert ServingPolicy().make_breaker() is None
    breaker = ServingPolicy(
        breaker_window=16, breaker_threshold=0.25,
        breaker_min_samples=4, breaker_cooldown=2.0,
    ).make_breaker()
    assert breaker is not None
    assert breaker.window == 16
    assert breaker.threshold == 0.25


# ---------------------------------------------------------------------------
# Transports take a policy
# ---------------------------------------------------------------------------

def test_policy_pickles():
    policy = ServingPolicy(max_latency=0.02, retry=RetryPolicy(max_attempts=3))
    clone = pickle.loads(pickle.dumps(policy))
    assert clone.max_latency == 0.02 and clone.retry.max_attempts == 3


def test_server_default_config_equals_bare_policy():
    from repro.models import build_serving_model

    image = np.random.default_rng(0).standard_normal((3, 16, 16))
    image = image.astype(np.float32)
    outs = []
    for config in (None, ServingPolicy()):
        model = build_serving_model("mobilenet", scheme="scc",
                                    width_mult=0.25, seed=9)
        server = Server(model, input_shapes=[(3, 16, 16)], config=config)
        handle = server.submit(image)
        server.flush()
        outs.append(server.result(handle).output)
        assert server.config == ServingPolicy()
    np.testing.assert_array_equal(outs[0], outs[1])
    with pytest.raises(TypeError, match="ServingPolicy"):
        Server(model, input_shapes=[(3, 16, 16)], config={"max_latency": 0.02})


def test_gateway_default_config_equals_bare_policy():
    assert AsyncGateway(None).config == ServingPolicy()
    lifted = AsyncGateway(ServingPolicy()).config
    assert lifted.adaptive_buckets is False
    assert lifted.shed_policy == "newest"


def test_gateway_accepts_policy():
    gateway = AsyncGateway(ServingPolicy(bucket_sizes=(1, 2)))
    assert isinstance(gateway.config, ServingPolicy)
    # Policy semantics preserved: no deadline shedding unless asked for.
    assert gateway.config.shed_policy == "newest"


# ---------------------------------------------------------------------------
# exec_estimate auto-calibration (SchedCore.observe_exec)
# ---------------------------------------------------------------------------

def test_observe_exec_seeds_then_ewma():
    core = SchedCore(bucket_sizes=(1,))
    core.add_model("m", exec_estimate=None)
    assert core.stats("m")["exec_auto"] is True
    assert core.stats("m")["exec_estimate"] == 0.0
    assert core.observe_exec("m", 0.10) == pytest.approx(0.10)   # seed
    est = core.observe_exec("m", 0.20, alpha=0.25)               # EWMA
    assert est == pytest.approx(0.10 + 0.25 * (0.20 - 0.10))
    assert core.stats("m")["exec_estimate"] == pytest.approx(est)


def test_observe_exec_static_estimates_never_move():
    core = SchedCore(bucket_sizes=(1,))
    core.add_model("m", exec_estimate=0.05)
    assert core.stats("m")["exec_auto"] is False
    assert core.observe_exec("m", 10.0) == 0.05
    assert core.stats("m")["exec_estimate"] == 0.05


def test_observe_exec_validation():
    core = SchedCore(bucket_sizes=(1,))
    core.add_model("m", exec_estimate=None)
    with pytest.raises(ValueError, match="seconds"):
        core.observe_exec("m", -1.0)
    with pytest.raises(ValueError):
        core.add_model("bad", exec_estimate=-0.1)
