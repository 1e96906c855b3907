"""The small-batch fused inference forward: what each warm call costs.

- one ``EpilogueArgs.apply`` pass per fused layer (SCC and grouped convs
  run their epilogue once over the finished output), with fused output
  still bitwise-equal to unfused;
- a fused layer's epilogue operands are bound once and rebound only when
  ``load_state_dict`` replaces the conv's bias;
- the conv and pool plan keys, built without ``Workload.make``, key the
  same cache entry it does, so a warm forward counts one hit per conv and
  pool lookup and no miss or build.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.backend import (
    PLAN_CACHE,
    EpilogueArgs,
    ModelPlan,
    Workload,
    conv2d_plan,
    plan_cache_stats,
    pool2d_plan,
)
from repro.core.scc import SlidingChannelConv2d
from repro.models import build_serving_model
from tests.test_fusion import _eval_out, _randomize_bn

# The three models the serving router benchmark mixes (width 0.25), with
# their fused-layer counts and plan-cache lookups per warm forward.
ROUTER_MODELS = {
    "mnet-scc": ("mobilenet", {"scheme": "scc", "cg": 2, "co": 0.5}, 27, 14),
    "r18-scc": ("resnet18", {"scheme": "scc", "cg": 2, "co": 0.5}, 36, 20),
    "mnet-gpw": ("mobilenet", {"scheme": "gpw", "cg": 2}, 27, 27),
}
SHAPE = (3, 32, 32)


@pytest.mark.parametrize("name", sorted(ROUTER_MODELS))
def test_warm_forward_runs_one_epilogue_pass_per_fused_layer(name, monkeypatch):
    arch, kwargs, fused_layers, lookups = ROUTER_MODELS[name]
    model = build_serving_model(arch, seed=3, width_mult=0.25, **kwargs)
    assert nn.count_fused(model) == fused_layers
    ModelPlan(model, SHAPE, include_backward=False)
    x = np.random.default_rng(4).standard_normal((1,) + SHAPE).astype(np.float32)
    _eval_out(model, x)

    passes = []
    apply = EpilogueArgs.apply
    monkeypatch.setattr(
        EpilogueArgs, "apply", lambda ep, out: (passes.append(ep), apply(ep, out))
    )
    before = plan_cache_stats()
    fused_out = _eval_out(model, x)
    after = plan_cache_stats()
    monkeypatch.undo()

    assert len(passes) == fused_layers
    assert len({id(ep) for ep in passes}) == fused_layers
    assert after["hits"] - before["hits"] == lookups
    assert after["misses"] == before["misses"]
    assert after["builds"] == before["builds"]

    unfused = build_serving_model(arch, seed=3, width_mult=0.25, fuse=False, **kwargs)
    assert nn.count_fused(unfused) == 0
    assert np.array_equal(fused_out, _eval_out(unfused, x))


# ---------------------------------------------------------------------------
# Epilogue operands: bound once, rebound by load_state_dict
# ---------------------------------------------------------------------------

def _unfused_stack(seed: int) -> nn.Module:
    model = nn.Sequential(
        nn.Conv2d(4, 8, 3, padding=1, bias=True, rng=np.random.default_rng(seed)),
        nn.BatchNorm2d(8),
        nn.ReLU(),
        SlidingChannelConv2d(8, 16, cg=2, co=0.5, bias=True,
                             rng=np.random.default_rng(seed + 1)),
        nn.BatchNorm2d(16),
        nn.ReLU6(),
    )
    rng = np.random.default_rng(seed + 2)
    _randomize_bn(model._modules["1"], rng)
    _randomize_bn(model._modules["4"], rng)
    return model.eval()


def _fused_stack(seed: int) -> nn.Module:
    model = _unfused_stack(seed)
    assert nn.fuse_inference(model) == 2
    return model


def test_kernel_args_are_bound_once():
    model = _fused_stack(30)
    convs = [model._modules["0"], model._modules["3"]]
    bound = [conv._fused_epilogue.kernel_args() for conv in convs]
    for conv, args in zip(convs, bound):
        assert conv._fused_epilogue.kernel_args() is args
        # In-place writes to the bias reach the bound operand: it is a view.
        assert np.shares_memory(args.bias, conv.bias.data)
    x = np.random.default_rng(31).standard_normal((2, 4, 6, 6)).astype(np.float32)
    _eval_out(model, x)
    for conv, args in zip(convs, bound):
        assert conv._fused_epilogue.kernel_args() is args


def test_load_state_dict_refreshes_fused_conv_weights():
    # Load new conv weights and biases into a fused model: its output must
    # equal a model fused afresh from the same state, bit for bit.
    model = _fused_stack(40)
    x = np.random.default_rng(41).standard_normal((2, 4, 6, 6)).astype(np.float32)
    stale = _eval_out(model, x)
    old_args = model._modules["3"]._fused_epilogue.kernel_args()

    donor = _unfused_stack(50)
    assert set(model.state_dict()) == {"0.weight", "0.bias", "3.weight", "3.bias"}
    new_state = {k: donor.state_dict()[k] for k in model.state_dict()}
    model.load_state_dict(new_state)
    assert model._modules["3"]._fused_epilogue.kernel_args() is not old_args

    fresh = _unfused_stack(40)      # the BN the fused model absorbed
    fresh.load_state_dict(new_state)
    nn.fuse_inference(fresh)
    refreshed = _eval_out(model, x)
    assert np.array_equal(refreshed, _eval_out(fresh, x))
    assert not np.array_equal(refreshed, stale)


def test_fused_state_dict_has_no_absorbed_bn():
    # The absorbed BN is out of the module tree: an unfused state dict's BN
    # keys have nowhere to go in the fused model.
    model = _fused_stack(60)
    with pytest.raises(KeyError, match="unexpected key"):
        model.load_state_dict(_unfused_stack(61).state_dict())


# ---------------------------------------------------------------------------
# Plan keys: conv2d_plan / pool2d_plan key Workload.make's entry
# ---------------------------------------------------------------------------

_INTS = st.sampled_from([int, np.int64, np.int32])
_DTYPES = st.sampled_from(
    ["float32", np.float32, np.dtype("float32"), "float64", np.float64]
)


def _lookup_hits(workload: Workload, plan) -> None:
    """``workload`` finds ``plan`` in the cache as one hit, no build."""
    before = PLAN_CACHE.stats()

    def fail():
        raise AssertionError(f"{workload} keyed a different entry")

    assert PLAN_CACHE.get_or_build(workload, fail) is plan
    after = PLAN_CACHE.stats()
    assert after["hits"] == before["hits"] + 1
    assert after["misses"] == before["misses"]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3),
    cin_g=st.integers(1, 3),
    og=st.integers(1, 3),
    groups=st.integers(1, 3),
    k=st.integers(1, 3),
    stride=st.integers(1, 3),
    padding=st.integers(0, 2),
    extra=st.integers(0, 4),
    as_int=_INTS,
    dtype=_DTYPES,
)
def test_conv2d_plan_keys_workload_make_entry(
    n, cin_g, og, groups, k, stride, padding, extra, as_int, dtype
):
    x_shape = (n, cin_g * groups, k + extra, k + 1)
    w_shape = (og * groups, cin_g, k, k)
    plan = conv2d_plan(
        x_shape, w_shape, as_int(stride), as_int(padding), as_int(groups), dtype
    )
    assert plan.x_shape == x_shape and plan.w_shape == w_shape
    wl = Workload.make(
        "conv2d", x_shape, w_shape, dtype,
        stride=stride, padding=padding, groups=groups,
    )
    _lookup_hits(wl, plan)
    assert conv2d_plan(x_shape, w_shape, stride, padding, groups, wl.dtype) is plan


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["max", "avg"]),
    n=st.integers(1, 3),
    c=st.integers(1, 4),
    kernel=st.integers(1, 3),
    stride=st.integers(1, 3),
    padding=st.integers(0, 1),
    cells=st.integers(1, 3),
    as_int=_INTS,
    dtype=_DTYPES,
)
def test_pool2d_plan_keys_workload_make_entry(
    kind, n, c, kernel, stride, padding, cells, as_int, dtype
):
    if kind == "avg":                   # AvgPool2d: stride == kernel, no pad
        stride, padding = kernel, 0
    size = kernel * cells + padding
    x_shape = (n, c, size, size)
    plan = pool2d_plan(
        kind, x_shape, as_int(kernel), as_int(stride), as_int(padding), dtype
    )
    assert plan.x_shape == x_shape and plan.kind == kind
    wl = Workload.make(
        f"{kind}pool2d", x_shape, dtype=dtype,
        kind=kind, kernel=kernel, stride=stride, padding=padding,
    )
    _lookup_hits(wl, plan)
