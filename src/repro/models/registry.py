"""Model registry: paper-name -> builder, with the paper's configurations.

``build_model("vgg16")`` gives the origin network;
``build_model("vgg16", scheme="scc", cg=2, co=0.5)`` gives its DSXplore form.
"""
from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from repro import nn
from repro.models.mobilenet import build_mobilenet
from repro.models.resnet import build_resnet
from repro.models.vgg import build_vgg

MODEL_BUILDERS: dict[str, Callable[..., nn.Module]] = {
    "vgg16": partial(build_vgg, "vgg16"),
    "vgg19": partial(build_vgg, "vgg19"),
    "mobilenet": build_mobilenet,
    "resnet18": partial(build_resnet, "resnet18"),
    "resnet50": partial(build_resnet, "resnet50"),
}

# The five networks of the paper's evaluation, in its presentation order.
PAPER_MODELS = ("vgg16", "vgg19", "mobilenet", "resnet18", "resnet50")


def available_models() -> tuple[str, ...]:
    return tuple(sorted(MODEL_BUILDERS))


def build_model(
    name: str,
    num_classes: int = 10,
    in_channels: int = 3,
    scheme: str | None = None,
    cg: int = 2,
    co: float = 0.5,
    width_mult: float = 1.0,
    imagenet_stem: bool = False,
    impl: str = "dsxplore",
    backend: str = "default",
    rng: np.random.Generator | None = None,
    plan_input_shape: tuple[int, int, int] | None = None,
    plan_batch_size: int = 1,
    plan_backward: bool = True,
) -> nn.Module:
    """Build a model by paper name.

    ``scheme=None`` is the origin network; ``scheme in {"pw","gpw","scc"}``
    is the factorized (DSXplore-converted) network.  VGG has no ImageNet-stem
    variant here (the paper evaluates it on CIFAR), so ``imagenet_stem`` is
    ignored for VGG.

    ``plan_input_shape`` turns on plan pre-building: the returned model
    carries a :class:`repro.backend.ModelPlan` (as ``model.model_plan``)
    built for ``plan_batch_size`` samples of that ``(C, H, W)`` geometry,
    so every layer's execution plan is cache-resident before the first
    training step (``plan_backward=True``) or inference request
    (``plan_backward=False``).
    """
    try:
        builder = MODEL_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; available: {available_models()}"
        ) from None
    kwargs = dict(
        num_classes=num_classes,
        in_channels=in_channels,
        scheme=scheme,
        cg=cg,
        co=co,
        width_mult=width_mult,
        impl=impl,
        backend=backend,
        rng=rng,
    )
    if name.startswith(("resnet", "mobilenet")):
        kwargs["imagenet_stem"] = imagenet_stem
    model = builder(**kwargs)
    if plan_input_shape is not None:
        from repro.backend import ModelPlan

        model.model_plan = ModelPlan(
            model,
            plan_input_shape,
            batch_size=plan_batch_size,
            include_backward=plan_backward,
        )
    return model


def build_serving_model(
    name: str, seed: int = 0, fuse: bool = True, **kwargs
) -> nn.Module:
    """Deterministic eval-mode model for the multi-model serving router.

    A thin :func:`build_model` wrapper with serving defaults: weights drawn
    from a seeded generator (two routers registering the same
    ``(name, seed, config)`` serve bit-identical outputs) and the module
    switched to eval mode, which serving assumes (BN running stats frozen).
    ``kwargs`` pass through to :func:`build_model`; ``plan_backward``
    defaults to ``False`` because serving never runs a backward pass.

    ``fuse=True`` (the default) runs :func:`repro.nn.fuse_inference` on the
    eval-mode model, absorbing bias/BN/activation stages into staged kernel
    epilogues — bitwise-identical outputs, fewer materialized
    intermediates.  Fusion happens *before* any ``plan_input_shape``
    pre-building so the :class:`~repro.backend.ModelPlan` warmup runs the
    fused path (:func:`repro.nn.count_fused` reports how many layers fused).

    :meth:`repro.serve.Router.register` calls this when handed a registry
    name instead of a built module.
    """
    kwargs.setdefault("rng", np.random.default_rng(seed))
    kwargs.setdefault("plan_backward", False)
    plan_input_shape = kwargs.pop("plan_input_shape", None)
    plan_batch_size = kwargs.pop("plan_batch_size", 1)
    plan_backward = kwargs.pop("plan_backward")
    model = build_model(name, **kwargs).eval()
    if fuse:
        nn.fuse_inference(model)
    if plan_input_shape is not None:
        from repro.backend import ModelPlan

        model.model_plan = ModelPlan(
            model,
            plan_input_shape,
            batch_size=plan_batch_size,
            include_backward=plan_backward,
        )
    return model
