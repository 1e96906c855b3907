"""The kernel-backend registry and execution-plan cache."""
import numpy as np
import pytest

from repro.backend import (
    KernelRegistry,
    Workload,
    available_backends,
    clear_plan_cache,
    contraction_path,
    conv2d_plan,
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

from tests.helpers import run_scc


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


@pytest.mark.parametrize("kernel,stride,padding", [(2, 2, 0), (3, 2, 1), (3, 1, 0)])
def test_maxpool_backends_agree(kernel, stride, padding):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
    plan = pool2d_plan("max", x.shape, kernel, stride, padding, x.dtype)
    out_np, ctx_np = get_kernel("maxpool2d", "numpy")(plan, x)
    out_ref, ctx_ref = get_kernel("maxpool2d", "reference")(plan, x)
    np.testing.assert_allclose(out_np, out_ref)
    grad = rng.standard_normal(out_np.shape).astype(np.float32)
    np.testing.assert_allclose(
        get_kernel("maxpool2d_backward", "numpy")(plan, ctx_np, grad),
        get_kernel("maxpool2d_backward", "reference")(plan, ctx_ref, grad),
    )


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
# Backend threading through modules
# ---------------------------------------------------------------------------

def test_nn_conv_backend_threading_end_to_end():
    from repro import nn

    seed_all(5)
    fast = nn.Conv2d(4, 6, 3, padding=1, rng=np.random.default_rng(9))
    slow = nn.Conv2d(4, 6, 3, padding=1, backend="reference",
                     rng=np.random.default_rng(9))
    x = Tensor(np.random.default_rng(10).standard_normal((2, 4, 5, 5)).astype(np.float32),
               requires_grad=True)
    out_fast = fast(x)
    out_slow = slow(x)
    np.testing.assert_allclose(out_fast.data, out_slow.data, atol=1e-5)
    out_slow.sum().backward()
    assert x.grad is not None


def test_scc_module_backend_threading():
    layer = SlidingChannelConv2d(8, 16, cg=2, co=0.5, backend="reference",
                                 rng=np.random.default_rng(11))
    assert layer.backend == "reference"
    layer.set_impl("conv_stack")
    assert layer.backend == "reference"   # backend survives impl swap
    x = Tensor(np.random.default_rng(12).standard_normal((2, 8, 4, 4)).astype(np.float32))
    assert layer(x).shape == (2, 16, 4, 4)


def test_build_model_backend_threading():
    from repro.models import build_model

    model = build_model("mobilenet", scheme="scc", width_mult=0.25,
                        backend="reference", rng=np.random.default_rng(13))
    convs = [m for _, m in model.named_modules() if hasattr(m, "backend")]
    assert convs and all(m.backend == "reference" for m in convs)
