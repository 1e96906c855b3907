"""The depthwise tap path, on generated geometries.

Depthwise convs (one input channel per group) run the per-tap elementwise
kernels of :mod:`repro.backend.numpy_backend` instead of per-group
contractions.  Each call stages its input once into a zero-bordered,
channels-last buffer split into ``stride x stride`` phases
(``stage_depthwise``); the taps read unit-stride windows of it, and the
backward reads the same buffer from the forward's context.  The contracts
under test, over kernel 1/3/5, stride 1-3, padding 0-2, odd (and
non-square) spatial sizes, batch 1 and up, channel multipliers 1-2,
float32/float64 and every gradient-request combination:

- ``numpy`` is allclose to ``reference``; forward and grad-input are even
  bit-identical to it (same per-element operation order), and a second
  run gives the same bits;
- ``conv2d`` with an ``epilogue=`` equals ``conv2d`` followed by the
  composed epilogue stages, bit for bit, on ``numpy`` and ``reference``;
- a batch row computed alone equals the same row inside a larger batch,
  with and without an epilogue (serving's bitwise contract);
- float32 grad-weight stays close to float64 on the training step's widest
  reductions (batch 32 at 32x32 and on the 128-channel 4x4 layer);
- pinned stride-2 and stride-3 geometries whose phases hold different
  numbers of rows: the staged layout, its inverse, and a backward that
  reads the forward's staged buffer and never pads a fresh NCHW copy.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import conv2d_plan, get_kernel
from repro.backend.numpy_backend import stage_depthwise, unstage_depthwise
from repro.backend.plan import EpilogueArgs
from tests.helpers import compose_epilogue

TOL = {np.float32: dict(rtol=1e-4, atol=1e-4), np.float64: dict(rtol=1e-10, atol=1e-10)}


@st.composite
def depthwise_cases(draw):
    kernel = draw(st.sampled_from([1, 3, 5]))
    stride = draw(st.integers(1, 3))
    padding = draw(st.integers(0, 2))
    # Odd spatial sizes large enough for at least one output position.
    smallest = max(1, kernel - 2 * padding)
    odd = st.integers(0, 5).map(lambda k: smallest + (smallest + 1) % 2 + 2 * k)
    return dict(
        n=draw(st.sampled_from([1, 1, 2, 3])),
        groups=draw(st.integers(2, 6)),
        multiplier=draw(st.sampled_from([1, 1, 2])),
        h=draw(odd),
        w=draw(odd),
        kernel=kernel,
        stride=stride,
        padding=padding,
        dtype=draw(st.sampled_from([np.float32, np.float64])),
        need=draw(st.sampled_from(
            [(True, True), (True, False), (False, True), (False, False)]
        )),
        seed=draw(st.integers(0, 2**16)),
    )


def _setup(case):
    rng = np.random.default_rng(case["seed"])
    g, dt = case["groups"], case["dtype"]
    x = rng.standard_normal((case["n"], g, case["h"], case["w"])).astype(dt)
    w = rng.standard_normal(
        (g * case["multiplier"], 1, case["kernel"], case["kernel"])
    ).astype(dt)
    plan = conv2d_plan(x.shape, w.shape, case["stride"], case["padding"], g, x.dtype)
    assert plan.depthwise
    grad = rng.standard_normal(plan.out_shape).astype(dt)
    return plan, x, w, grad


def _run(backend, plan, x, w, grad, need):
    out, ctx = get_kernel("conv2d", backend)(plan, x, w)
    gx, gw = get_kernel("conv2d_backward", backend)(
        plan, ctx, grad, need_input_grad=need[0], need_weight_grad=need[1]
    )
    return out, gx, gw


@settings(max_examples=60, deadline=None)
@given(depthwise_cases())
def test_depthwise_numpy_close_to_reference_and_repeatable(case):
    plan, x, w, grad = _setup(case)
    need = case["need"]
    ref = _run("reference", plan, x, w, grad, need)
    expected = _run("numpy", plan, x, w, grad, need)
    for got, want in zip(expected, ref):
        assert (got is None) == (want is None)
        if got is not None:
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_allclose(got, want, **TOL[case["dtype"]])
    # Forward and grad-input replay the reference's per-element op order.
    assert np.array_equal(expected[0], ref[0])
    if need[0]:
        assert np.array_equal(expected[1], ref[1])
    again = _run("numpy", plan, x, w, grad, need)
    for a, b in zip(expected, again):
        assert (a is None and b is None) or np.array_equal(a, b)


def _epilogue(channels, dtype, rng):
    def per_channel(scale=1.0, shift=0.0):
        v = rng.standard_normal(channels) * scale + shift
        return v.astype(dtype).reshape(1, -1, 1, 1)

    return EpilogueArgs(
        bias=per_channel(),
        mean=per_channel(),
        scale=per_channel(0.2, 1.0),
        beta=per_channel(),
        activation="relu6",
    )


@settings(max_examples=30, deadline=None)
@given(depthwise_cases())
def test_depthwise_fused_equals_composed_stages(case):
    plan, x, w, _ = _setup(case)
    ep = _epilogue(w.shape[0], case["dtype"], np.random.default_rng(case["seed"]))
    for backend in ("numpy", "reference"):
        conv = get_kernel("conv2d", backend)
        out, _ = conv(plan, x, w)
        fused, _ = conv(plan, x, w, epilogue=ep)
        assert np.array_equal(fused, compose_epilogue(out, ep))


@settings(max_examples=30, deadline=None)
@given(depthwise_cases())
def test_depthwise_batch_row_alone_equals_row_in_bucket(case):
    plan, x, w, _ = _setup(case)
    ep = _epilogue(w.shape[0], case["dtype"], np.random.default_rng(case["seed"]))
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


def test_depthwise_batch_chunking_changes_no_forward_or_grad_input_bit(monkeypatch):
    """Batch chunking is an implementation detail: a tiny chunk budget
    (one image per chunk) changes no forward or grad-input bit."""
    import repro.backend.numpy_backend as nb

    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 4, 9, 9)).astype(np.float32)
    w = rng.standard_normal((4, 1, 3, 3)).astype(np.float32)
    plan = conv2d_plan(x.shape, w.shape, 2, 1, 4, x.dtype)
    grad = rng.standard_normal(plan.out_shape).astype(np.float32)
    out, gx, gw = _run("numpy", plan, x, w, grad, (True, True))
    monkeypatch.setattr(nb, "_DW_CHUNK_BYTES", 1)
    out1, gx1, gw1 = _run("numpy", plan, x, w, grad, (True, True))
    assert np.array_equal(out, out1) and np.array_equal(gx, gx1)
    np.testing.assert_allclose(gw, gw1, rtol=1e-5, atol=1e-5)
    ref = _run("reference", plan, x, w, grad, (True, True))
    np.testing.assert_allclose(gw1, ref[2], rtol=1e-4, atol=1e-4)


@pytest.mark.parametrize("channels,size,stride,seed", [
    (8, 32, 1, 11),
    (16, 32, 2, 12),
    (128, 4, 1, 13),
])
def test_depthwise_grad_weight_float32_accuracy(channels, size, stride, seed):
    """Float32 grad-weight stays within 2e-5 of the float64 result at batch
    32 (max |gw - gw64| / (|gw64| + 1)): per tap and channel, the stride-1
    32x32 layer sums 32768 products."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((32, channels, size, size))
    w = rng.standard_normal((channels, 1, 3, 3))
    plan = conv2d_plan(x.shape, w.shape, stride, 1, channels, np.float64)
    grad = rng.standard_normal(plan.out_shape)
    gw64 = _run("numpy", plan, x, w, grad, (False, True))[2]
    plan32 = conv2d_plan(x.shape, w.shape, stride, 1, channels, np.float32)
    f32 = [a.astype(np.float32) for a in (x, w, grad)]
    gw = _run("numpy", plan32, *f32, (False, True))[2]
    assert gw.dtype == np.float32
    assert np.max(np.abs(gw - gw64) / (np.abs(gw64) + 1)) <= 2e-5


# (kernel, stride, padding, h, w): mostly stride 2 and 3 at odd sizes, where
# the phases hold different numbers of rows or columns (e.g. 9 padded rows
# at stride 2 are phases of 5 and 4; 13 at stride 3 are 5, 4 and 4).
# Grad-input accumulates over runs of whole phase rows on the wider maps
# (the last three among them) and over windows on the others.
PHASED = [
    (3, 2, 1, 7, 7),
    (3, 2, 1, 7, 5),
    (3, 2, 0, 9, 11),
    (5, 2, 2, 5, 9),
    (3, 3, 1, 11, 7),
    (5, 3, 2, 9, 13),
    (1, 3, 0, 7, 5),
    (3, 1, 1, 9, 13),
    (3, 2, 1, 17, 19),
    (5, 3, 2, 9, 25),
]


def test_phased_cases_cover_windows_and_runs():
    from repro.backend.numpy_backend import _grad_runs

    runs = []
    for kernel, stride, padding, h, w in PHASED:
        wo = (w + 2 * padding - kernel) // stride + 1
        runs.append(_grad_runs(wo, -(-(w + 2 * padding) // stride)))
    assert runs[-3:] == [True] * 3 and not all(runs)


@pytest.mark.parametrize("kernel,stride,padding,h,w", PHASED)
def test_staged_buffer_is_the_phase_split_padded_input(kernel, stride, padding, h, w):
    x = np.random.default_rng(h * w).standard_normal((2, 3, h, w)).astype(np.float32)
    xs = stage_depthwise(x, stride, padding)
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    hp, wp = padded.shape[2:]
    assert xs.shape == (2, stride, stride, -(-hp // stride), -(-wp // stride), 3)
    for a in range(stride):
        for b in range(stride):
            phase = padded[:, :, a::stride, b::stride].transpose(0, 2, 3, 1)
            rows, cols = phase.shape[1:3]
            assert np.array_equal(xs[:, a, b, :rows, :cols], phase)
            assert not xs[:, a, b, rows:].any() and not xs[:, a, b, :, cols:].any()
    back = np.empty_like(x)
    unstage_depthwise(xs, back, stride, padding)
    assert np.array_equal(back, x)


@pytest.mark.parametrize("kernel,stride,padding,h,w", PHASED)
@pytest.mark.parametrize("multiplier", [1, 2])
def test_phased_depthwise_bits_and_staged_backward(
    kernel, stride, padding, h, w, multiplier, monkeypatch
):
    import repro.backend.numpy_backend as nb

    case = dict(n=3, groups=4, multiplier=multiplier, h=h, w=w, kernel=kernel,
                stride=stride, padding=padding, dtype=np.float32, seed=kernel * h + w)
    plan, x, w_, grad = _setup(case)
    ref = _run("reference", plan, x, w_, grad, (True, True))

    staged = []

    def no_pad(*args, **kwargs):
        raise AssertionError("a depthwise conv padded an NCHW copy")

    def counting_stage(*args):
        staged.append(args)
        return stage_depthwise(*args)

    monkeypatch.setattr(nb, "pad2d", no_pad)
    monkeypatch.setattr(nb, "stage_depthwise", counting_stage)
    out, ctx = get_kernel("conv2d", "numpy")(plan, x, w_)
    assert set(ctx) == {"xs", "w"} and len(staged) == 1
    gx, gw = get_kernel("conv2d_backward", "numpy")(plan, ctx, grad)
    assert len(staged) == 1            # backward staged nothing of its own
    assert np.array_equal(out, ref[0]) and np.array_equal(gx, ref[1])
    np.testing.assert_allclose(gw, ref[2], **TOL[np.float32])

    # Backward reads the context's buffer: doubling it (exact in floating
    # point) doubles grad-weight bit for bit and leaves grad-input alone.
    ctx2 = {"xs": ctx["xs"] * 2, "w": ctx["w"]}
    gx2, gw2 = get_kernel("conv2d_backward", "numpy")(plan, ctx2, grad)
    assert np.array_equal(gw2, gw * 2) and np.array_equal(gx2, gx)
