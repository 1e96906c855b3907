"""Property-based tests on cross-cutting algebraic invariants (hypothesis)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.channel_map import SCCConfig
from repro.tensor import Tensor
from repro.tensor.function import unbroadcast
from repro.utils import seed_all

from tests.helpers import run_scc


@pytest.fixture(autouse=True)
def _seed():
    seed_all(161)


small_arrays = st.integers(0, 10_000).map(
    lambda s: np.random.default_rng(s).standard_normal((3, 4)).astype(np.float64)
)


@settings(max_examples=30, deadline=None)
@given(small_arrays, small_arrays)
def test_addition_gradient_is_identity_on_both(a, b):
    x = Tensor(a, requires_grad=True)
    y = Tensor(b, requires_grad=True)
    (x + y).sum().backward()
    np.testing.assert_allclose(x.grad, np.ones_like(a))
    np.testing.assert_allclose(y.grad, np.ones_like(b))


@settings(max_examples=30, deadline=None)
@given(small_arrays)
def test_mul_by_self_grad_is_2x(a):
    x = Tensor(a, requires_grad=True)
    (x * x).sum().backward()
    np.testing.assert_allclose(x.grad, 2 * a.astype(np.float32), rtol=1e-4)


@settings(max_examples=30, deadline=None)
@given(small_arrays, st.floats(-3, 3).filter(lambda c: abs(c) > 1e-3))
def test_grad_is_linear_in_output_seed(a, c):
    # backward(c * g) == c * backward(g) — VJPs are linear maps.
    x1 = Tensor(a, requires_grad=True)
    (x1.exp()).backward(np.full_like(a, c, dtype=np.float32))
    x2 = Tensor(a, requires_grad=True)
    (x2.exp()).backward(np.ones_like(a, dtype=np.float32))
    np.testing.assert_allclose(x1.grad, c * x2.grad, rtol=1e-4, atol=1e-5)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(3, 4), (1, 4), (3, 1), (4,), (1,), (2, 3, 4)]),
    st.integers(0, 1000),
)
def test_unbroadcast_inverts_broadcast(shape, seed):
    rng = np.random.default_rng(seed)
    target = rng.standard_normal((2, 3, 4))
    small = rng.standard_normal(shape)
    broadcast_grad = np.ones_like(target + small)  # force broadcast shape
    reduced = unbroadcast(broadcast_grad, shape)
    assert reduced.shape == shape
    # Each cell accumulated exactly (broadcast multiplicity) ones.
    multiplicity = broadcast_grad.size / np.prod(shape)
    np.testing.assert_allclose(reduced, np.full(shape, multiplicity))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_scc_gradient_consistent_with_forward_jvp(seed):
    """<J v, g> == <v, J^T g> for the SCC linear operator (adjoint test)."""
    cfg = SCCConfig(8, 12, 2, 0.5)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 8, 3, 3)).astype(np.float32)
    w = rng.standard_normal((12, 4)).astype(np.float32)
    v = rng.standard_normal(x.shape).astype(np.float32)
    g = rng.standard_normal((2, 12, 3, 3)).astype(np.float32)
    jv = run_scc(cfg, v, w)[0]          # J v (linear in x)
    _, jt_g, _, _ = run_scc(cfg, x, w, g, need_weight_grad=False)
    lhs = float((jv * g).sum())
    rhs = float((v * jt_g).sum())
    assert abs(lhs - rhs) <= 1e-3 * max(abs(lhs), abs(rhs), 1.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_scc_weight_gradient_adjoint(seed):
    """Same adjoint identity in the weight argument."""
    cfg = SCCConfig(8, 12, 2, 0.5)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 8, 3, 3)).astype(np.float32)
    w = rng.standard_normal((12, 4)).astype(np.float32)
    dw = rng.standard_normal(w.shape).astype(np.float32)
    g = rng.standard_normal((2, 12, 3, 3)).astype(np.float32)
    j_dw = run_scc(cfg, x, dw)[0]       # linear in w too
    _, _, jt_g, _ = run_scc(cfg, x, w, g, need_input_grad=False)
    lhs = float((j_dw * g).sum())
    rhs = float((dw * jt_g).sum())
    assert abs(lhs - rhs) <= 1e-3 * max(abs(lhs), abs(rhs), 1.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([0.0, 0.25, 0.5, 0.75]))
def test_scc_output_permutes_under_cyclic_input_shift(seed, co):
    """Shifting input channels by the slide stride rotates which filters see
    them — outputs permute within a cycle rather than changing arbitrarily."""
    cfg = SCCConfig(8, 8, 2, co)
    stride = cfg.slide_stride
    if stride == 0 or 8 % stride:
        return
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, 8, 3, 3)).astype(np.float32)
    w = rng.standard_normal((8, cfg.group_width)).astype(np.float32)
    # With identical weights in every filter, filter o applied to the input
    # rolled back by one stride sees exactly what filter o+1 sees on the
    # original input: rolled[o] == base[o+1].
    w_const = np.tile(w[:1], (8, 1))
    base_c = run_scc(cfg, x, w_const)[0]
    rolled_c = run_scc(cfg, np.roll(x, -stride, axis=1), w_const)[0]
    for o in range(8 - 1):
        np.testing.assert_allclose(rolled_c[0, o], base_c[0, o + 1], atol=1e-4)
