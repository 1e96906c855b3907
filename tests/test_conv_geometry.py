"""Dense and grouped conv2d, on generated geometries.

Every non-depthwise conv forward runs the im2col GEMM of
:func:`repro.backend.numpy_backend.im2col_gemm` (once for dense convs, per
group for grouped ones); the backward runs the einsum grad-weight and
per-tap data-grad contractions.  The contracts under test,
over kernel 1/2/3/5, stride 1-3, padding 0-2, groups 1-4 with at least two
input channels per group, batch 1-3, odd and even, square and non-square
spatial sizes, float32/float64 and every gradient-request combination:

- ``numpy`` is allclose to ``reference``, and gives the same bits when
  run again;
- ``conv2d`` with an ``epilogue=`` equals ``conv2d`` followed by the
  composed epilogue stages, bit for bit, on ``numpy`` and ``reference``;
- a batch row computed alone equals the same row inside a larger batch,
  with and without an epilogue (serving's bitwise contract).
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import conv2d_plan, get_kernel
from repro.backend.plan import EpilogueArgs
from tests.helpers import compose_epilogue

TOL = {np.float32: dict(rtol=1e-4, atol=1e-4), np.float64: dict(rtol=1e-10, atol=1e-10)}
NEEDS = [(True, True), (True, False), (False, True), (False, False)]


@st.composite
def conv_cases(draw):
    kernel = draw(st.sampled_from([1, 2, 3, 5]))
    stride = draw(st.integers(1, 3))
    padding = draw(st.integers(0, 2))
    groups = draw(st.integers(1, 4))
    # Large enough for at least one output position.
    smallest = max(1, kernel - 2 * padding)
    size = st.integers(smallest, smallest + 8)
    activation = draw(st.sampled_from([None, "relu", "relu6"]))
    return dict(
        n=draw(st.integers(1, 3)),
        groups=groups,
        cin_g=draw(st.integers(2, 20 if groups == 1 else 5)),
        cout_g=draw(st.integers(1, 6)),
        h=draw(size),
        w=draw(size),
        kernel=kernel,
        stride=stride,
        padding=padding,
        dtype=draw(st.sampled_from([np.float32, np.float64])),
        need=draw(st.sampled_from(NEEDS)),
        stages=dict(
            bias=draw(st.booleans()), affine=draw(st.booleans()), activation=activation
        ),
        seed=draw(st.integers(0, 2**16)),
    )


def _setup(case):
    rng = np.random.default_rng(case["seed"])
    g, dt, k = case["groups"], case["dtype"], case["kernel"]
    x = rng.standard_normal((case["n"], g * case["cin_g"], case["h"], case["w"])).astype(dt)
    w = rng.standard_normal((g * case["cout_g"], case["cin_g"], k, k)).astype(dt)
    plan = conv2d_plan(x.shape, w.shape, case["stride"], case["padding"], g, x.dtype)
    assert not plan.depthwise
    grad = rng.standard_normal(plan.out_shape).astype(dt)
    return plan, x, w, grad


def _run(backend, plan, x, w, grad, need):
    out, ctx = get_kernel("conv2d", backend)(plan, x, w)
    gx, gw = get_kernel("conv2d_backward", backend)(
        plan, ctx, grad, need_input_grad=need[0], need_weight_grad=need[1]
    )
    return out, gx, gw


def _epilogue(stages, channels, dtype, seed):
    rng = np.random.default_rng(seed + 1)

    def per_channel(scale=1.0, shift=0.0):
        v = rng.standard_normal(channels) * scale + shift
        return v.astype(dtype).reshape(1, -1, 1, 1)

    affine = stages["affine"]
    return EpilogueArgs(
        bias=per_channel() if stages["bias"] else None,
        mean=per_channel() if affine else None,
        scale=per_channel(0.2, 1.0) if affine else None,
        beta=per_channel() if affine else None,
        activation=stages["activation"],
    )


@settings(max_examples=50, deadline=None)
@given(conv_cases())
def test_conv_numpy_close_to_reference_and_repeatable(case):
    plan, x, w, grad = _setup(case)
    need = case["need"]
    ref = _run("reference", plan, x, w, grad, need)
    expected = _run("numpy", plan, x, w, grad, need)
    for got, want in zip(expected, ref):
        assert (got is None) == (want is None)
        if got is not None:
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_allclose(got, want, **TOL[case["dtype"]])
    again = _run("numpy", plan, x, w, grad, need)
    for a, b in zip(expected, again):
        assert (a is None and b is None) or np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(conv_cases())
def test_conv_fused_equals_composed_stages(case):
    plan, x, w, _ = _setup(case)
    ep = _epilogue(case["stages"], w.shape[0], case["dtype"], case["seed"])
    for backend in ("numpy", "reference"):
        conv = get_kernel("conv2d", backend)
        out, _ = conv(plan, x, w)
        fused, _ = conv(plan, x, w, epilogue=ep)
        assert np.array_equal(fused, compose_epilogue(out, ep))


@settings(max_examples=40, deadline=None)
@given(conv_cases())
def test_conv_batch_row_alone_equals_row_in_bucket(case):
    plan, x, w, _ = _setup(case)
    ep = _epilogue(case["stages"], w.shape[0], case["dtype"], case["seed"])
    conv = get_kernel("conv2d", "numpy")
    bucket = np.concatenate([x, x[::-1], x])       # the rows at other offsets
    bplan = conv2d_plan(bucket.shape, w.shape, plan.stride, plan.padding,
                        plan.groups, bucket.dtype)
    full, _ = conv(bplan, bucket, w)
    full_fused, _ = conv(bplan, bucket, w, epilogue=ep)
    for r in range(x.shape[0]):
        row = x[r : r + 1]
        rplan = conv2d_plan(row.shape, w.shape, plan.stride, plan.padding,
                            plan.groups, row.dtype)
        alone, _ = conv(rplan, row, w)
        alone_fused, _ = conv(rplan, row, w, epilogue=ep)
        assert np.array_equal(alone[0], full[r])
        assert np.array_equal(alone_fused[0], full_fused[r])
