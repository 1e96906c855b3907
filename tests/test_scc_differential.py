"""SCC kernels on generated layer geometries.

The contracts under test, over generated ``SCCConfig``s (``cg`` 1-4, ``co``
in {0, .25, .5, .75}, any ``Cout``), batch 1-3, spatial sizes from 1x1 to
odd non-square ones, float32/float64 and every gradient-request
combination, for all three strategies:

- ``numpy`` is allclose to ``reference``, forward and backward;
- ``numpy`` run again gives the same bits and an equal
  :class:`KernelStats` snapshot;
- the DSXplore segment GEMM helpers equal ``np.einsum`` (to rounding) on
  non-contiguous channel-slice views, the operands the kernels hand them.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import get_kernel, scc_plan
from repro.backend.numpy_backend import (
    pull_gemm,
    segment_fwd_gemm,
    segment_gradw_gemm,
)
from repro.backend.stats import KernelStats
from repro.core.channel_map import SCCConfig

TOL = {np.float32: dict(rtol=1e-4, atol=1e-4), np.float64: dict(rtol=1e-10, atol=1e-10)}

STRATEGIES = [
    ("dsxplore", "input_centric"),
    ("dsxplore", "output_centric"),
    ("conv_stack", "input_centric"),
    ("channel_stack", "input_centric"),
]


@st.composite
def scc_cases(draw):
    cg = draw(st.integers(1, 4))
    spatial = st.sampled_from([1, 1, 2, 3, 5, 7])
    return dict(
        cfg=SCCConfig(
            cg * draw(st.integers(1, 6)),
            draw(st.integers(1, 24)),
            cg,
            draw(st.sampled_from([0.0, 0.25, 0.5, 0.75])),
        ),
        n=draw(st.integers(1, 3)),
        h=draw(spatial),
        w=draw(spatial),
        dtype=draw(st.sampled_from([np.float32, np.float64])),
        need=draw(st.sampled_from(
            [(True, True), (True, False), (False, True), (False, False)]
        )),
        strategy=draw(st.sampled_from(STRATEGIES)),
        seed=draw(st.integers(0, 2**16)),
    )


def _run(backend, case, x, w, grad):
    plan = scc_plan(case["cfg"])
    strategy, design = case["strategy"]
    stats = KernelStats()
    out, saved = get_kernel("scc_forward", backend)(
        plan, x, w, strategy=strategy, stats=stats
    )
    gx, gw = get_kernel("scc_backward", backend)(
        plan, saved, grad, strategy=strategy, backward_design=design,
        need_input_grad=case["need"][0], need_weight_grad=case["need"][1],
        stats=stats,
    )
    return (out, gx, gw), stats.snapshot()


@settings(max_examples=80, deadline=None)
@given(scc_cases())
def test_scc_numpy_close_to_reference_and_repeatable(case):
    cfg, dt = case["cfg"], case["dtype"]
    rng = np.random.default_rng(case["seed"])
    x = rng.standard_normal((case["n"], cfg.in_channels, case["h"], case["w"])).astype(dt)
    w = rng.standard_normal((cfg.out_channels, cfg.group_width)).astype(dt)
    grad = rng.standard_normal(
        (case["n"], cfg.out_channels, case["h"], case["w"])
    ).astype(dt)

    expected, stats_np = _run("numpy", case, x, w, grad)
    ref, _ = _run("reference", case, x, w, grad)
    for got, want in zip(expected, ref):
        assert (got is None) == (want is None)
        if got is not None:
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_allclose(got, want, **TOL[dt])
    again, stats_again = _run("numpy", case, x, w, grad)
    for a, b in zip(expected, again):
        assert (a is None and b is None) or np.array_equal(a, b)
    assert stats_again == stats_np


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3),
    c=st.integers(1, 9),
    o=st.integers(1, 9),
    h=st.sampled_from([1, 2, 3, 5]),
    w=st.sampled_from([1, 2, 4, 5]),
    spatial_stride=st.sampled_from([1, 1, 2]),
    dtype=st.sampled_from([np.float32, np.float64]),
    data=st.data(),
)
def test_segment_gemm_helpers_match_einsum_on_views(
    n, c, o, h, w, spatial_stride, dtype, data
):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    # A channel slice of a wider tensor (optionally strided in W too, which
    # forces the reshape to copy): the views the kernels pass.
    lead = data.draw(st.integers(0, 3))
    big = rng.standard_normal((n, lead + c + 2, h, w * spatial_stride)).astype(dtype)
    x_seg = big[:, lead : lead + c, :, ::spatial_stride]
    cd = data.draw(st.integers(1, 3))
    p = data.draw(st.integers(0, cd - 1))
    grad_all = rng.standard_normal((n, o * cd, h, w)).astype(dtype)
    g_seg = grad_all[:, p::cd]                               # an output interleave
    w_all = rng.standard_normal((o * cd, c + 3)).astype(dtype)
    w_seg = w_all[p::cd, 1 : 1 + c]                          # strided weight view
    tol = TOL[dtype]

    np.testing.assert_allclose(
        segment_fwd_gemm(x_seg, w_seg), np.einsum("nchw,oc->nohw", x_seg, w_seg), **tol
    )
    np.testing.assert_allclose(
        segment_gradw_gemm(g_seg, x_seg), np.einsum("nohw,nchw->oc", g_seg, x_seg), **tol
    )
    w_full = rng.standard_normal((o * cd, c)).astype(dtype)
    want = np.einsum("nohw,oc->nchw", grad_all, w_full)
    np.testing.assert_allclose(pull_gemm(grad_all, w_full), want, **tol)
