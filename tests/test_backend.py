"""The kernel-backend registry and execution-plan cache."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import (
    REGISTRY,
    KernelRegistry,
    Workload,
    available_backends,
    backend_override,
    clear_plan_cache,
    contraction_path,
    conv2d_plan,
    current_backend_override,
    env_stamp,
    get_kernel,
    plan_cache_stats,
    planned_einsum,
    pool2d_plan,
)
from repro.core.channel_map import SCCConfig, channel_windows
from repro.core.scc import SlidingChannelConv2d
from repro.tensor import Tensor
from repro.utils import seed_all

from tests.helpers import record_kernel_calls, run_scc


@pytest.fixture(autouse=True)
def _seed():
    seed_all(77)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

CORE_OPS = (
    "conv2d", "conv2d_backward",
    "scc_forward", "scc_backward",
    "maxpool2d", "maxpool2d_backward",
    "avgpool2d", "avgpool2d_backward",
)


def test_registry_has_reference_and_numpy_for_every_op():
    from repro.backend import REGISTRY

    for op in CORE_OPS:
        assert op in REGISTRY.ops()
        # Superset, not equality: additional backends
        # must be registrable without touching this test.
        assert {"numpy", "reference"} <= set(available_backends(op)), op


def test_default_backend_follows_preference_order():
    import os

    from repro.backend import REGISTRY

    for op in CORE_OPS:
        expected = next(
            name for name in REGISTRY.default_order
            if name in REGISTRY.backends(op)
        )
        assert get_kernel(op) is get_kernel(op, expected)
        if not os.environ.get("REPRO_BACKEND"):
            # Without an env override the default is the numpy fast path.
            assert REGISTRY.resolve_name(op, "default") == "numpy"
            assert get_kernel(op) is get_kernel(op, "numpy")


def test_registry_unknown_op_and_backend_rejected():
    with pytest.raises(ValueError, match="unknown kernel op"):
        get_kernel("warp_drive")
    with pytest.raises(ValueError, match="no backend"):
        get_kernel("conv2d", "cuda")


def test_registry_register_and_preference_order():
    reg = KernelRegistry()
    reg.register("op", "reference")(lambda: "ref")
    assert reg.get("op", "default")() == "ref"   # falls back when numpy absent
    reg.register("op", "numpy")(lambda: "np")
    assert reg.get("op", "default")() == "np"


def test_env_stamp_shape():
    stamp = env_stamp()
    assert set(stamp) == {"backend", "num_workers", "host_cpus"}
    assert isinstance(stamp["backend"], str)
    assert stamp["host_cpus"] >= 1
    # num_workers is configuration only when pinned; under the
    # default test env it must be None so same-machine runs with different
    # idle pool sizes still match (perfbench/compare.py refuses runs whose
    # stamps differ).
    assert stamp["num_workers"] is None or isinstance(stamp["num_workers"], int)


# ---------------------------------------------------------------------------
# Workload / plan cache
# ---------------------------------------------------------------------------

def test_workload_is_hashable_and_order_insensitive():
    a = Workload.make("conv2d", (1, 2, 3, 3), (4, 2, 1, 1), "float32",
                      stride=1, padding=0)
    b = Workload.make("conv2d", (1, 2, 3, 3), (4, 2, 1, 1), np.float32,
                      padding=0, stride=1)
    assert a == b and hash(a) == hash(b)
    assert a.param("stride") == 1
    assert a != Workload.make("conv2d", (1, 2, 3, 3), (4, 2, 1, 1), "float32",
                              stride=2, padding=0)


def test_plan_cache_hits_on_repeated_shapes():
    clear_plan_cache()
    p1 = conv2d_plan((2, 4, 8, 8), (6, 4, 3, 3), 1, 1, 1, "float32")
    misses = plan_cache_stats()["misses"]
    p2 = conv2d_plan((2, 4, 8, 8), (6, 4, 3, 3), 1, 1, 1, "float32")
    assert p1 is p2
    assert plan_cache_stats()["misses"] == misses
    assert plan_cache_stats()["hits"] >= 1


def test_scc_plan_shared_across_strategy_instances():
    s1 = SlidingChannelConv2d(8, 16, cg=2, co=0.5, impl="dsxplore")
    s2 = SlidingChannelConv2d(8, 16, cg=2, co=0.5, impl="channel_stack")
    assert s1.plan is s2.plan
    np.testing.assert_array_equal(s1.plan.windows, channel_windows(8, 16, 2, 0.5))


def test_plan_cache_eviction_bounded():
    from repro.backend.workload import PlanCache

    cache = PlanCache(maxsize=3)
    for i in range(10):
        cache.get_or_build(Workload.make("x", (i,)), lambda i=i: i)
    assert len(cache) == 3
    # Most recent entries survive.
    assert Workload.make("x", (9,)) in cache


def test_invalid_workload_raises_every_call():
    # Builder failures are not cached: the same bad workload fails twice.
    for _ in range(2):
        with pytest.raises(ValueError, match="groups"):
            conv2d_plan((1, 4, 5, 5), (6, 2, 3, 3), 1, 0, 3, "float64")


def test_planned_einsum_matches_numpy():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 5, 6)).astype(np.float32)
    b = rng.standard_normal((6, 3)).astype(np.float32)
    want = np.einsum("abc,cd->abd", a, b, optimize=True)
    got = planned_einsum("abc,cd->abd", a, b)
    np.testing.assert_allclose(got, want, rtol=1e-6)
    # The path is cached under the (subscripts, shapes, dtype) workload.
    path = contraction_path("abc,cd->abd", (a.shape, b.shape), a.dtype)
    assert path == contraction_path("abc,cd->abd", (a.shape, b.shape), a.dtype)


# ---------------------------------------------------------------------------
# Reference backend == numpy backend
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("stride,padding,groups", [(1, 1, 1), (2, 1, 2), (1, 0, 4)])
def test_conv2d_backends_agree(stride, padding, groups):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 4, 6, 6)).astype(np.float32)
    w = rng.standard_normal((4, 4 // groups, 3, 3)).astype(np.float32)
    plan = conv2d_plan(x.shape, w.shape, stride, padding, groups, x.dtype)
    out_np, ctx_np = get_kernel("conv2d", "numpy")(plan, x, w)
    out_ref, ctx_ref = get_kernel("conv2d", "reference")(plan, x, w)
    np.testing.assert_allclose(out_np, out_ref, atol=1e-5)

    grad = rng.standard_normal(out_np.shape).astype(np.float32)
    gx_np, gw_np = get_kernel("conv2d_backward", "numpy")(plan, ctx_np, grad)
    gx_ref, gw_ref = get_kernel("conv2d_backward", "reference")(plan, ctx_ref, grad)
    np.testing.assert_allclose(gx_np, gx_ref, atol=1e-4)
    np.testing.assert_allclose(gw_np, gw_ref, rtol=1e-3, atol=1e-4)


def _maxpool(backend, plan, x, grad):
    out, ctx = get_kernel("maxpool2d", backend)(plan, x)
    return out, get_kernel("maxpool2d_backward", backend)(plan, ctx, grad)


@pytest.mark.parametrize("kernel,stride,padding", [(2, 2, 0), (3, 2, 1), (3, 1, 0)])
def test_maxpool_backends_agree(kernel, stride, padding):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
    plan = pool2d_plan("max", x.shape, kernel, stride, padding, x.dtype)
    grad = rng.standard_normal(plan.out_shape).astype(np.float32)
    out, gx = _maxpool("numpy", plan, x, grad)
    out_ref, gx_ref = _maxpool("reference", plan, x, grad)
    assert np.array_equal(out, out_ref)
    assert np.array_equal(gx, gx_ref)


@st.composite
def maxpool_cases(draw):
    kernel = draw(st.integers(1, 3))
    padding = draw(st.integers(0, kernel // 2))
    # Large enough for at least one output position.
    size = st.integers(max(1, kernel - 2 * padding), kernel + 7)
    return dict(
        shape=(draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(size), draw(size)),
        kernel=kernel,
        stride=draw(st.integers(1, 3)),
        padding=padding,
        dtype=draw(st.sampled_from([np.float32, np.float64])),
        ties=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=60, deadline=None)
@given(maxpool_cases())
def test_maxpool_numpy_equals_reference(case):
    """Output and grad-input of numpy equal reference's, ties included (a
    window's gradient goes to its first max), and a batch row pooled alone
    equals the same row of the whole batch."""
    rng = np.random.default_rng(case["seed"])
    shape, dt = case["shape"], case["dtype"]
    if case["ties"]:
        x = rng.integers(-2, 3, shape).astype(dt)
    else:
        x = rng.standard_normal(shape).astype(dt)
    geom = (case["kernel"], case["stride"], case["padding"], x.dtype)
    plan = pool2d_plan("max", x.shape, *geom)
    grad = rng.standard_normal(plan.out_shape).astype(dt)
    out, gx = _maxpool("numpy", plan, x, grad)
    out_ref, gx_ref = _maxpool("reference", plan, x, grad)
    assert out.dtype == gx.dtype == dt
    assert np.array_equal(out, out_ref)
    assert np.array_equal(gx, gx_ref)
    row = shape[0] - 1
    row_plan = pool2d_plan("max", x[row:].shape, *geom)
    out_row, gx_row = _maxpool("numpy", row_plan, x[row:], grad[row:])
    assert np.array_equal(out_row, out[row:])
    assert np.array_equal(gx_row, gx[row:])


@pytest.mark.parametrize("kernel,stride,padding", [(2, 2, 0), (3, 1, 1)])
def test_maxpool_nan_windows_match_reference(kernel, stride, padding):
    """A window holding a NaN pools to NaN and sends its gradient to its
    first NaN, as reference's argmax does; an infinite gradient reaches
    only its window's max."""
    x = np.random.default_rng(3).standard_normal((2, 1, 4, 4)).astype(np.float32)
    x[0, 0, 1, 1] = np.nan
    x[1, 0, 2, 2] = x[1, 0, 2, 3] = np.nan
    plan = pool2d_plan("max", x.shape, kernel, stride, padding, x.dtype)
    grad = np.arange(1, np.prod(plan.out_shape) + 1, dtype=np.float32).reshape(plan.out_shape)
    out, gx = _maxpool("numpy", plan, x, grad)
    out_ref, gx_ref = _maxpool("reference", plan, x, grad)
    assert np.isnan(out).any()
    assert np.array_equal(out, out_ref, equal_nan=True)
    assert np.array_equal(gx, gx_ref)
    assert gx[0, 0, 1, 1] > 0 and gx[1, 0, 2, 2] > 0 and gx[1, 0, 2, 3] == 0
    grad[0, 0, 0, 0], grad[1, 0, 0, 0] = np.inf, -np.inf
    assert np.array_equal(_maxpool("numpy", plan, x, grad)[1],
                          _maxpool("reference", plan, x, grad)[1])


def test_avgpool_backends_agree():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
    plan = pool2d_plan("avg", x.shape, 2, 2, 0, x.dtype)
    out_np, _ = get_kernel("avgpool2d", "numpy")(plan, x)
    out_ref, _ = get_kernel("avgpool2d", "reference")(plan, x)
    np.testing.assert_allclose(out_np, out_ref, atol=1e-6)
    grad = rng.standard_normal(out_np.shape).astype(np.float32)
    np.testing.assert_allclose(
        get_kernel("avgpool2d_backward", "numpy")(plan, {}, grad),
        get_kernel("avgpool2d_backward", "reference")(plan, {}, grad),
        atol=1e-6,
    )


@pytest.mark.parametrize("strategy", ["channel_stack", "conv_stack", "dsxplore"])
def test_scc_reference_backend_matches_numpy(strategy):
    cfg = SCCConfig(8, 12, 2, 0.5)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 8, 3, 3)).astype(np.float32)
    w = rng.standard_normal((12, 4)).astype(np.float32)
    grad = rng.standard_normal((2, 12, 3, 3)).astype(np.float32)
    out_f, gx_f, gw_f, _ = run_scc(cfg, x, w, grad, strategy, backend="numpy")
    out_s, gx_s, gw_s, _ = run_scc(cfg, x, w, grad, strategy, backend="reference")
    np.testing.assert_allclose(out_s, out_f, atol=1e-5)
    np.testing.assert_allclose(gx_s, gx_f, rtol=1e-3, atol=1e-4)
    np.testing.assert_allclose(gw_s, gw_f, rtol=1e-3, atol=1e-4)


# ---------------------------------------------------------------------------
# Backend selection for model code: backend_override() and graph nodes
# ---------------------------------------------------------------------------

def test_backend_override_rejects_unregistered_names():
    # A typo must not silently resolve the default backend: that would make
    # a reference comparison compare numpy with itself.
    with pytest.raises(ValueError, match="'refrence' is not a registered") as exc:
        with backend_override("refrence"):
            pass
    assert "registered: ['numpy', 'reference'" in str(exc.value)
    assert current_backend_override() is None
    with backend_override(None):
        assert current_backend_override() is None
    with backend_override("reference"):
        assert get_kernel("conv2d") is get_kernel("conv2d", "reference")
        with backend_override("default"):   # the normal order again
            assert get_kernel("conv2d") is REGISTRY.get_default("conv2d", None)
        assert current_backend_override() == "reference"
    assert current_backend_override() is None


def _kernel_backends(calls):
    return {c.backend for c in calls}


def test_nn_conv_backend_threading_end_to_end():
    from repro import nn

    seed_all(5)
    conv = nn.Conv2d(4, 6, 3, padding=1, rng=np.random.default_rng(9))
    data = np.random.default_rng(10).standard_normal((2, 4, 5, 5)).astype(np.float32)
    runs = {}
    for backend in ("numpy", "reference"):
        conv.zero_grad()
        x = Tensor(data, requires_grad=True)
        with record_kernel_calls() as calls, backend_override(backend):
            out = conv(x)
            out.sum().backward()
        assert _kernel_backends(calls) == {backend}
        assert [c.op for c in calls] == ["conv2d", "conv2d_backward"]
        runs[backend] = (out.data, x.grad, conv.weight.grad.copy())
    for fast, slow in zip(runs["numpy"], runs["reference"]):
        np.testing.assert_allclose(fast, slow, rtol=1e-4, atol=1e-5)


def test_scc_module_backend_threading():
    layer = SlidingChannelConv2d(8, 16, cg=2, co=0.5, rng=np.random.default_rng(11))
    x = Tensor(np.random.default_rng(12).standard_normal((2, 8, 4, 4)).astype(np.float32))
    for impl in ("dsxplore", "conv_stack"):   # the override survives an impl swap
        layer.set_impl(impl)
        with record_kernel_calls() as calls, backend_override("reference"):
            out = layer(x)
        assert [(c.op, c.backend) for c in calls] == [("scc_forward", "reference")]
        with backend_override("numpy"):
            np.testing.assert_allclose(out.data, layer(x).data, atol=1e-5)
    assert out.shape == (2, 16, 4, 4)


def test_build_model_backend_threading():
    from repro.models import build_model

    model = build_model("mobilenet", scheme="scc", width_mult=0.25,
                        rng=np.random.default_rng(13))
    x = Tensor(np.random.default_rng(14).standard_normal((2, 3, 8, 8)).astype(np.float32))
    with record_kernel_calls() as calls, backend_override("reference"):
        out = model(x).data
    assert {c.op for c in calls} == {"conv2d", "scc_forward"}
    assert _kernel_backends(calls) == {"reference"}
    with backend_override("numpy"):
        np.testing.assert_allclose(out, model(x).data, rtol=1e-4, atol=1e-5)


def _layer_case(kind):
    from repro import nn

    rng = np.random.default_rng(21)
    if kind == "depthwise":
        return nn.DepthwiseConv2d(6, rng=rng), (2, 6, 5, 5)
    if kind == "dense":
        return nn.Conv2d(6, 4, 3, padding=1, rng=rng), (2, 6, 5, 5)
    if kind == "maxpool":
        return nn.MaxPool2d(3, stride=2, padding=1), (2, 6, 5, 5)
    if kind == "avgpool":
        return nn.AvgPool2d(2), (2, 6, 4, 4)
    return SlidingChannelConv2d(6, 9, cg=3, co=0.5, rng=rng), (2, 6, 4, 4)


def _forward_backward(layer, data, forward_under, backward_under):
    layer.zero_grad()
    x = Tensor(data, requires_grad=True)
    with record_kernel_calls() as calls:
        with backend_override(forward_under):
            out = layer(x)
        grad = np.random.default_rng(23).standard_normal(out.shape).astype(np.float32)
        with backend_override(backward_under):
            out.backward(grad)
    grads = [x.grad] + [p.grad.copy() for p in layer.parameters()]
    return [out.data] + grads, calls


@pytest.mark.parametrize("kind", ["depthwise", "dense", "maxpool", "avgpool", "scc"])
@pytest.mark.parametrize("forward_under,backward_under", [
    ("reference", None), (None, "reference"),
])
def test_node_backward_runs_on_its_forward_backend(kind, forward_under, backward_under):
    # A graph node resolves its backward kernel under the override its
    # forward saw, so both halves run on one backend whichever side of a
    # backend_override() block the backward runs on.
    layer, shape = _layer_case(kind)
    data = np.random.default_rng(22).standard_normal(shape).astype(np.float32)
    want, _ = _forward_backward(layer, data, "reference", "reference")
    got, calls = _forward_backward(layer, data, forward_under, backward_under)

    expect = forward_under or REGISTRY.resolve_name("conv2d", "default")
    assert [c.backend for c in calls] == [expect, expect]
    assert calls[1].op == calls[0].op.replace("_forward", "") + "_backward"
    for g, w in zip(got, want):
        if expect == "reference":
            assert np.array_equal(g, w)
        else:
            np.testing.assert_allclose(g, w, rtol=1e-3, atol=1e-4)
