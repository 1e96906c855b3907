"""Model-level planning: batch-aware shape harvest + whole-model pre-build."""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro.backend
from repro.backend import ModelPlan, clear_plan_cache, plan_cache_stats
from repro.gpusim import extract_layer_shapes
from repro.models import build_model
from repro.tensor import Tensor, no_grad
from repro.train import Trainer, TrainConfig
from repro.utils import seed_all

INPUT = (3, 16, 16)


@pytest.fixture(autouse=True)
def _seed():
    seed_all(21)


def _mini_model(**kwargs):
    return build_model("mobilenet", scheme="scc", width_mult=0.25, **kwargs)


# ---------------------------------------------------------------------------
# Batch-parameterized shape extraction (regression: hardcoded batch-1 probe)
# ---------------------------------------------------------------------------

def test_extract_layer_shapes_accepts_batch_size():
    model = _mini_model()
    s1 = extract_layer_shapes(model, INPUT, batch_size=1)
    s4 = extract_layer_shapes(model, INPUT, batch_size=4)
    # Per-layer geometry is batch-invariant; the probe just must not crash
    # or harvest a different layer list at serving batch sizes.
    assert [(s.name, s.kind, s.cin, s.cout) for s in s1] == \
           [(s.name, s.kind, s.cin, s.cout) for s in s4]
    with pytest.raises(ValueError, match="batch_size"):
        extract_layer_shapes(model, INPUT, batch_size=0)
    # Harvested conv shapes carry the module's true stride/padding.
    modules = dict(model.named_modules())
    convs = [s for s in s4 if s.kind in ("conv", "dw", "pw", "gpw", "gc")]
    assert any(s.stride > 1 for s in convs) and any(s.padding > 0 for s in convs)
    for s in convs:
        assert (s.stride, s.padding) == (modules[s.name].stride,
                                         modules[s.name].padding)


# ---------------------------------------------------------------------------
# ModelPlan: pre-built plans make step 1 fully warm
# ---------------------------------------------------------------------------

def test_model_plan_makes_training_step_fully_warm():
    model = _mini_model()
    clear_plan_cache()
    plan = ModelPlan(model, INPUT, batch_size=4, include_backward=True)
    assert plan.prebuilt_plans > 0

    base = plan_cache_stats()
    x = Tensor(np.random.default_rng(0).standard_normal((4, *INPUT)).astype(np.float32))
    out = model(x)
    out.sum().backward()
    model.zero_grad()
    after = plan_cache_stats()
    assert after["misses"] == base["misses"], "planned step must not build plans"
    assert after["builds"] == base["builds"]
    assert after["hits"] > base["hits"]


def test_model_plan_inference_only_warm_and_probe_side_effect_free():
    model = _mini_model()
    before = model.state_dict()
    clear_plan_cache()
    ModelPlan(model, INPUT, batch_size=2, include_backward=False)

    # Planning must leave parameters, buffers and grads untouched.
    after = model.state_dict()
    assert before.keys() == after.keys()
    for key in before:
        np.testing.assert_array_equal(before[key], after[key], err_msg=key)
    assert all(p.grad is None or not p.grad.any() for p in model.parameters())

    base = plan_cache_stats()
    with no_grad():
        model.eval()(Tensor(np.zeros((2, *INPUT), dtype=np.float32)))
    assert plan_cache_stats()["builds"] == base["builds"]


def test_model_plan_training_probe_restores_model_state():
    model = _mini_model()
    before = model.state_dict()
    ModelPlan(model, INPUT, batch_size=2, include_backward=True)
    after = model.state_dict()
    for key in before:
        np.testing.assert_array_equal(before[key], after[key], err_msg=key)


@pytest.mark.parametrize("include_backward", [False, True])
def test_model_plan_runs_the_model_exactly_once(monkeypatch, include_backward):
    model = _mini_model()
    # A hook on the root only: hooks on BN/ReLU modules would switch the
    # fused bn_act path off and plan a different forward.
    forwards = []
    model.register_forward_hook(lambda mod, inputs, out: forwards.append(inputs[0].shape))
    backwards = []
    real_backward = Tensor.backward

    def counting_backward(self, *args, **kwargs):
        backwards.append(self.shape)
        return real_backward(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "backward", counting_backward)
    ModelPlan(model, INPUT, batch_size=3, include_backward=include_backward)
    assert forwards == [(3, *INPUT)]
    assert len(backwards) == (1 if include_backward else 0)


@pytest.mark.parametrize("name,kwargs,input_shape", [
    ("mobilenet", dict(scheme="scc", width_mult=0.25), INPUT),
    ("resnet18", dict(scheme="scc", width_mult=0.25), INPUT),
    ("vgg16", dict(scheme="scc", width_mult=0.125), (3, 32, 32)),  # five 2x2 pools
], ids=["mobilenet", "resnet18", "vgg16"])
def test_first_step_after_any_plan_is_fully_warm(name, kwargs, input_shape):
    """Training plans warm the training step and the eval forward; inference
    plans warm the eval forward."""
    x = np.random.default_rng(1).standard_normal((2, *input_shape)).astype(np.float32)
    for include_backward in (True, False):
        model = build_model(name, **kwargs)
        clear_plan_cache()
        ModelPlan(model, input_shape, batch_size=2, include_backward=include_backward)
        base = plan_cache_stats()
        if include_backward:
            model.train()
            model(Tensor(x)).sum().backward()
            model.zero_grad()
        with no_grad():
            model.eval()(Tensor(x))
        after = plan_cache_stats()
        assert after["builds"] == base["builds"], (name, include_backward)
        assert after["misses"] == base["misses"], (name, include_backward)


def test_building_a_plan_does_not_import_gpusim():
    code = textwrap.dedent(f"""
        import sys
        from repro.backend import ModelPlan
        from repro.models import build_model
        model = build_model("mobilenet", scheme="scc", width_mult=0.25)
        ModelPlan(model, {INPUT!r}, batch_size=2, include_backward=True)
        ModelPlan(model, {INPUT!r}, batch_size=2, include_backward=False)
        sys.exit(1 if "repro.gpusim" in sys.modules else 0)
    """)
    src = str(Path(repro.backend.__file__).parents[2])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr or "repro.gpusim was imported"


def test_stage_batch_pads_and_validates():
    model = _mini_model()
    plan = ModelPlan(model, INPUT, batch_size=4, include_backward=False)
    imgs = np.ones((2, *INPUT), dtype=np.float32)
    staged = plan.stage_batch(imgs)
    assert staged is plan.input_buffer and staged.shape == (4, *INPUT)
    np.testing.assert_array_equal(staged[:2], imgs)
    assert not staged[2:].any()
    with pytest.raises(ValueError, match="stage"):
        plan.stage_batch(np.ones((5, *INPUT), dtype=np.float32))
    with pytest.raises(ValueError, match="stage"):
        plan.stage_batch(np.ones((2, 3, 8, 8), dtype=np.float32))
    assert plan.matches((4, *INPUT)) and not plan.matches((2, *INPUT))


# ---------------------------------------------------------------------------
# build_model hook + trainer integration
# ---------------------------------------------------------------------------

def test_build_model_plan_hook_attaches_model_plan():
    model = _mini_model(plan_input_shape=INPUT, plan_batch_size=4)
    assert isinstance(model.model_plan, ModelPlan)
    assert model.model_plan.batch_size == 4
    assert model.model_plan.include_backward


def test_trainer_uses_model_plan_for_full_batches():
    model = _mini_model(plan_input_shape=INPUT, plan_batch_size=4)
    trainer = Trainer(model, TrainConfig(epochs=1, lr=0.01))
    assert trainer.model_plan is model.model_plan

    rng = np.random.default_rng(5)
    base = plan_cache_stats()
    full = rng.standard_normal((4, *INPUT)).astype(np.float32)
    loss, _ = trainer.train_step(full, np.array([0, 1, 2, 3]))
    assert np.isfinite(loss)
    assert trainer.planned_steps == 1
    assert plan_cache_stats()["builds"] == base["builds"]

    # Ragged final batch falls back to the plain path.
    ragged = rng.standard_normal((3, *INPUT)).astype(np.float32)
    loss, _ = trainer.train_step(ragged, np.array([0, 1, 2]))
    assert np.isfinite(loss)
    assert trainer.planned_steps == 1


def test_trainer_planned_and_plain_steps_agree():
    seed_all(9)
    planned_model = _mini_model(rng=np.random.default_rng(7),
                                plan_input_shape=INPUT, plan_batch_size=4)
    seed_all(9)
    plain_model = _mini_model(rng=np.random.default_rng(7))
    rng = np.random.default_rng(11)
    images = rng.standard_normal((4, *INPUT)).astype(np.float32)
    labels = np.array([0, 1, 2, 3])
    loss_a, acc_a = Trainer(planned_model, TrainConfig(epochs=1)).train_step(images, labels)
    loss_b, acc_b = Trainer(plain_model, TrainConfig(epochs=1)).train_step(images, labels)
    assert loss_a == pytest.approx(loss_b, rel=1e-6) and acc_a == acc_b
