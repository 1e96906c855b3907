"""Training-step and inference timing for whole networks.

``cold_plans=True`` models the first step of a run: every unique layer
workload additionally pays the host-side plan build
(``DeviceSpec.plan_build_overhead``, calibrated against the measured
cold-vs-warm deltas of ``bench_ablation_plan_cache``).  Steady-state steps
(the default) run entirely on a warm plan cache, mirroring what
:class:`repro.backend.ModelPlan` guarantees for the real kernels.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend.workload import Workload
from repro.gpusim.device import DeviceSpec
from repro.gpusim.kernel import SimulationResult, simulate_kernels
from repro.gpusim.workloads import LayerShape, model_step_kernels

_CONV_KINDS = ("conv", "dw", "pw", "gpw", "gc")


@dataclass
class StepTime:
    """One simulated training step."""

    total: float
    launch: float
    atomic: float
    num_launches: int
    result: SimulationResult
    plan_build: float = 0.0      # host-side plan construction (cold step only)

    @classmethod
    def from_result(
        cls, result: SimulationResult, plan_build: float = 0.0
    ) -> "StepTime":
        return cls(
            total=result.total_time + plan_build,
            launch=result.launch_time,
            atomic=result.atomic_time,
            num_launches=result.num_launches,
            result=result,
            plan_build=plan_build,
        )


def layer_workload(shape: LayerShape, batch_size: int) -> Workload | None:
    """The plan-cache :class:`~repro.backend.Workload` one layer geometry keys.

    Conv-family and SCC layers dispatch through cached plans; BN, linear and
    elementwise layers have no plan-cache entry and return ``None``.
    """
    if shape.kind in _CONV_KINDS:
        return Workload.make(
            "conv2d",
            (batch_size, shape.cin, shape.hin, shape.win),
            (shape.cout, shape.cin // shape.groups, shape.kernel, shape.kernel),
            np.float32,
            stride=shape.stride,
            padding=shape.padding,
            groups=shape.groups,
        )
    if shape.kind == "scc":
        return Workload.make(
            "scc_plan",
            cin=shape.cin,
            cout=shape.cout,
            cg=shape.scc.cg,
            co=shape.scc.co,
        )
    return None


def plan_build_time(shapes: list[LayerShape], batch: int, device: DeviceSpec) -> float:
    """Host time a cold first step spends building execution plans.

    One charge per *unique* conv/SCC layer workload, not per layer
    occurrence: repeated shape-classes (every block of a stage, all
    strategy instances of one SCC config) share a single build, exactly
    like the real cache.  Pooling-geometry and standalone einsum-path
    builds are not modelled separately — conv plans embed their three
    contraction-path searches (the expensive part of a build, which the
    ``plan_build_overhead`` calibration reflects), while pool plans are
    plain shape algebra.
    """
    unique = {layer_workload(shape, batch) for shape in shapes}
    unique.discard(None)
    return len(unique) * device.plan_build_overhead


def training_step_time(
    shapes: list[LayerShape],
    batch: int,
    device: DeviceSpec,
    scc_strategy: str = "dsxplore",
    scc_backward: str = "input_centric",
    cold_plans: bool = False,
) -> StepTime:
    """Simulated fwd+bwd+update time for one mini-batch."""
    kernels = model_step_kernels(
        shapes, batch, scc_strategy=scc_strategy, scc_backward=scc_backward,
        include_backward=True,
    )
    build = plan_build_time(shapes, batch, device) if cold_plans else 0.0
    return StepTime.from_result(simulate_kernels(kernels, device), plan_build=build)


def inference_time(
    shapes: list[LayerShape],
    batch: int,
    device: DeviceSpec,
    scc_strategy: str = "dsxplore",
    cold_plans: bool = False,
) -> StepTime:
    """Simulated forward-only latency for one batch."""
    kernels = model_step_kernels(
        shapes, batch, scc_strategy=scc_strategy, include_backward=False
    )
    build = plan_build_time(shapes, batch, device) if cold_plans else 0.0
    return StepTime.from_result(simulate_kernels(kernels, device), plan_build=build)


def backward_only_time(
    shapes: list[LayerShape],
    batch: int,
    device: DeviceSpec,
    scc_strategy: str = "dsxplore",
    scc_backward: str = "input_centric",
) -> float:
    """Backward-pass-only time (paper Fig. 9 protocol)."""
    full = training_step_time(shapes, batch, device, scc_strategy, scc_backward).total
    fwd = inference_time(shapes, batch, device, scc_strategy).total
    return max(full - fwd, 0.0)
