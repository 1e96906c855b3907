"""Inference-graph fusion: staged conv epilogues stay bitwise-honest.

:func:`repro.nn.fuse_inference` absorbs bias / eval-mode BN / activation
into the producing kernel's staged epilogue.  The contract under test:

- fused output == unfused output **bitwise** — the epilogue replays the
  exact elementwise op sequence the module stack composes, for Conv2d and
  SCC layers, with and without BN, for both activations;
- the fused fast path engages only under no-grad eval execution, as one
  ``conv2d`` call with ``epilogue=`` on every backend; under autograd the
  layer composes the same stages as Tensor ops and still matches bitwise;
- a fused layer uses the same cached ``Conv2dPlan`` as an unfused one, so a
  fused model's warm-up caches one plan per conv geometry;
- fusion bookkeeping surfaces end to end: ``count_fused`` and the serving
  ``Server``/``Router`` metrics.
"""
import numpy as np
import pytest

from repro import nn
from repro.backend import EpilogueArgs
from repro.core.blocks import DepthwiseSeparableBlock
from repro.core.scc import SlidingChannelConv2d
from repro.tensor import Tensor, no_grad
from tests.helpers import record_kernel_calls


def _randomize_bn(bn: nn.BatchNorm2d, rng: np.random.Generator) -> None:
    """Non-trivial gamma/beta/running stats so the affine actually bites."""
    bn.weight.data[:] = rng.uniform(0.5, 1.5, bn.num_features).astype(np.float32)
    bn.bias.data[:] = rng.standard_normal(bn.num_features).astype(np.float32)
    bn._buffers["running_mean"][:] = rng.standard_normal(
        bn.num_features).astype(np.float32)
    bn._buffers["running_var"][:] = rng.uniform(
        0.2, 2.0, bn.num_features).astype(np.float32)


def _eval_out(model: nn.Module, x: np.ndarray) -> np.ndarray:
    model.eval()
    with no_grad():
        return model(Tensor(x)).data


def _assert_fuse_bitwise(model: nn.Module, x: np.ndarray, expect_fused: int):
    before = _eval_out(model, x)
    assert nn.fuse_inference(model) == expect_fused
    assert nn.count_fused(model) == expect_fused
    after = _eval_out(model, x)
    assert np.array_equal(before, after)
    return before


# ---------------------------------------------------------------------------
# Fused == unfused, bitwise, across stage combinations and backends
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["numpy", "reference"])
def test_conv_bn_relu_fuses_bitwise(backend):
    rng = np.random.default_rng(0)
    model = nn.Sequential(
        nn.Conv2d(8, 16, 3, padding=1, bias=True, backend=backend,
                  rng=np.random.default_rng(1)),
        nn.BatchNorm2d(16),
        nn.ReLU(),
    )
    _randomize_bn(model._modules["1"], rng)
    x = rng.standard_normal((2, 8, 6, 6)).astype(np.float32)
    _assert_fuse_bitwise(model, x, expect_fused=1)
    # The absorbed stages were replaced by Identity: the conv now carries
    # the whole epilogue.
    assert isinstance(model._modules["1"], nn.Identity)
    assert isinstance(model._modules["2"], nn.Identity)
    conv = model._modules["0"]
    ep = conv._fused_epilogue
    assert ep.bias is conv.bias
    assert isinstance(ep.bn, nn.BatchNorm2d) and ep.activation == "relu"


def test_bias_only_conv_fuses_bitwise():
    rng = np.random.default_rng(2)
    model = nn.Sequential(
        nn.Conv2d(4, 8, 3, padding=1, bias=True, rng=np.random.default_rng(3)),
    )
    x = rng.standard_normal((2, 4, 5, 5)).astype(np.float32)
    _assert_fuse_bitwise(model, x, expect_fused=1)
    ep = model._modules["0"]._fused_epilogue
    assert ep.bias is not None and ep.bn is None and ep.activation is None


def test_conv_relu6_fuses_bitwise():
    rng = np.random.default_rng(4)
    model = nn.Sequential(
        nn.Conv2d(4, 8, 3, padding=1, bias=False, rng=np.random.default_rng(5)),
        nn.ReLU6(),
    )
    # Large inputs so the 6.0 clamp actually clips some activations.
    x = (rng.standard_normal((2, 4, 5, 5)) * 4).astype(np.float32)
    _assert_fuse_bitwise(model, x, expect_fused=1)
    ep = model._modules["0"]._fused_epilogue
    assert ep.bias is None and ep.bn is None and ep.activation == "relu6"


def test_scc_bn_relu_fuses_bitwise():
    rng = np.random.default_rng(6)
    model = nn.Sequential(
        SlidingChannelConv2d(16, 32, cg=4, co=0.25, bias=True,
                             rng=np.random.default_rng(7)),
        nn.BatchNorm2d(32),
        nn.ReLU(),
    )
    _randomize_bn(model._modules["1"], rng)
    x = rng.standard_normal((2, 16, 6, 6)).astype(np.float32)
    _assert_fuse_bitwise(model, x, expect_fused=1)


def test_separable_block_fuses_both_stages_bitwise():
    rng = np.random.default_rng(8)
    block = DepthwiseSeparableBlock(8, 16, scheme="scc", cg=2, co=0.5,
                                    rng=np.random.default_rng(9))
    _randomize_bn(block.bn1, rng)
    _randomize_bn(block.bn2, rng)
    x = rng.standard_normal((2, 8, 8, 8)).astype(np.float32)
    before = _eval_out(block, x)
    assert nn.fuse_inference(block) == 2          # depthwise and pointwise
    assert nn.count_fused(block) == 2
    assert isinstance(block.bn1, nn.Identity)
    assert isinstance(block.act2, nn.Identity)
    assert np.array_equal(before, _eval_out(block, x))


def test_fuse_is_idempotent():
    model = nn.Sequential(
        nn.Conv2d(4, 8, 3, bias=True, rng=np.random.default_rng(10)),
        nn.ReLU(),
    )
    assert nn.fuse_inference(model) == 1
    assert nn.fuse_inference(model) == 0          # already fused: no-op
    assert nn.count_fused(model) == 1


def test_unfusable_conv_left_alone():
    # Nothing to absorb (no bias, no BN, no activation): stay on the plain
    # conv dispatch rather than paying the fused plan's epilogue machinery.
    model = nn.Sequential(
        nn.Conv2d(4, 8, 3, bias=False, rng=np.random.default_rng(11)),
    )
    assert nn.fuse_inference(model) == 0
    assert nn.count_fused(model) == 0
    assert model._modules["0"]._fused_epilogue is None


def test_bn_width_mismatch_not_absorbed():
    # A BN that does not normalize the conv's own output channels must not
    # be folded into its epilogue.
    model = nn.Sequential(
        nn.Conv2d(4, 8, 3, padding=1, bias=True, rng=np.random.default_rng(12)),
        nn.Identity(),
        nn.BatchNorm2d(8),
    )
    assert nn.fuse_inference(model) == 1          # bias-only fusion
    assert model._modules["0"]._fused_epilogue.bn is None
    assert isinstance(model._modules["2"], nn.BatchNorm2d)  # BN kept live


# ---------------------------------------------------------------------------
# Dispatch: the kernel epilogue on every backend, composed under autograd
# ---------------------------------------------------------------------------

def test_fused_layer_composes_under_autograd():
    rng = np.random.default_rng(13)
    model = nn.Sequential(
        nn.Conv2d(4, 8, 3, padding=1, bias=True, rng=np.random.default_rng(14)),
        nn.BatchNorm2d(8),
        nn.ReLU(),
    )
    _randomize_bn(model._modules["1"], rng)
    x = rng.standard_normal((2, 4, 5, 5)).astype(np.float32)
    reference = _eval_out(model, x)
    nn.fuse_inference(model)
    model.eval()
    inp = Tensor(x, requires_grad=True)
    out = model(inp)                              # grad enabled: composed path
    assert np.array_equal(out.data, reference)
    out.sum().backward()
    assert inp.grad is not None
    assert np.isfinite(inp.grad).all()


def test_reference_fused_layer_runs_the_kernel_epilogue():
    # The reference conv2d kernel applies the epilogue itself: the fused
    # layer makes one kernel call, with epilogue=, and still equals the
    # unfused stack bitwise.
    rng = np.random.default_rng(15)
    model = nn.Sequential(
        nn.Conv2d(4, 8, 3, padding=1, bias=True, backend="reference",
                  rng=np.random.default_rng(16)),
        nn.BatchNorm2d(8),
        nn.ReLU(),
    )
    _randomize_bn(model._modules["1"], rng)
    x = rng.standard_normal((2, 4, 5, 5)).astype(np.float32)
    before = _eval_out(model, x)
    assert nn.fuse_inference(model) == 1
    with record_kernel_calls() as calls:
        after = _eval_out(model, x)
    assert [(c.op, c.backend) for c in calls] == [("conv2d", "reference")]
    assert isinstance(calls[0].kwargs["epilogue"], EpilogueArgs)
    assert np.array_equal(before, after)


def test_epilogue_args_validation():
    with pytest.raises(ValueError, match="activation"):
        EpilogueArgs(activation="sigmoid")
    for activation in (None, "relu", "relu6"):
        assert EpilogueArgs(activation=activation).activation == activation


# ---------------------------------------------------------------------------
# Bookkeeping: ModelPlan and the serving metrics
# ---------------------------------------------------------------------------

def _tiny_fused_model(seed: int) -> nn.Module:
    model = nn.Sequential(
        nn.Conv2d(3, 8, 3, padding=1, bias=True,
                  rng=np.random.default_rng(seed)),
        nn.BatchNorm2d(8),
        nn.ReLU(),
        nn.Conv2d(8, 8, 3, padding=1, bias=True,
                  rng=np.random.default_rng(seed + 1)),
        nn.ReLU(),
    )
    model.eval()
    nn.fuse_inference(model)
    return model


def test_model_plan_warmup_caches_one_plan_per_conv_geometry():
    # Fused and unfused layers share one Conv2dPlan per geometry: after the
    # warm-up the cache holds exactly the plans the forward's kernels use,
    # and a second forward runs on hits alone.
    from repro.backend import ModelPlan, clear_plan_cache, plan_cache_stats
    from repro.models import build_serving_model

    clear_plan_cache()
    model = build_serving_model("mobilenet", scheme="scc", width_mult=0.25,
                                seed=17)
    assert nn.count_fused(model) == 27
    plan = ModelPlan(model, (3, 16, 16), include_backward=False)
    before = plan_cache_stats()
    with record_kernel_calls() as calls, no_grad():
        model(Tensor(plan.stage_batch(np.ones((1, 3, 16, 16), np.float32))))
    after = plan_cache_stats()
    conv_plans = {id(c.plan): c.plan for c in calls if c.op == "conv2d"}
    geometries = {(p.x_shape, p.w_shape, p.stride, p.padding, p.groups)
                  for p in conv_plans.values()}
    assert len(conv_plans) == len(geometries) > 0
    assert before["size"] == len({id(c.plan) for c in calls})
    assert after["misses"] == before["misses"]
    assert after["builds"] == before["builds"]
    assert after["hits"] > before["hits"]


def test_server_metrics_report_fused_layers():
    from repro.serve import Server, ServingPolicy

    server = Server(_tiny_fused_model(19), input_shapes=[(3, 8, 8)],
                    config=ServingPolicy(bucket_sizes=(1,), max_latency=60.0))
    assert server.fused_layers == 2
    rng = np.random.default_rng(20)
    server.submit(rng.standard_normal((3, 8, 8)).astype(np.float32))
    server.flush()
    assert server.metrics().fused_layers == 2


def test_router_metrics_sum_fused_layers():
    from repro.serve import Router, ServingPolicy

    router = Router(server_config=ServingPolicy(bucket_sizes=(1,),
                                                max_latency=60.0))
    router.register("a", _tiny_fused_model(21), input_shapes=[(3, 8, 8)])
    router.register("b", _tiny_fused_model(23), input_shapes=[(3, 8, 8)])
    assert router.metrics().fused_layers == 4
