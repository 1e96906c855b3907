"""Training-step and inference timing for whole networks.

Every simulated step runs on a warm plan cache, as
:class:`repro.backend.ModelPlan` guarantees for the real kernels.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.gpusim.device import DeviceSpec
from repro.gpusim.kernel import SimulationResult, simulate_kernels
from repro.gpusim.workloads import LayerShape, model_step_kernels


@dataclass
class StepTime:
    """One simulated training step."""

    total: float
    launch: float
    atomic: float
    num_launches: int
    result: SimulationResult

    @classmethod
    def from_result(cls, result: SimulationResult) -> "StepTime":
        return cls(
            total=result.total_time,
            launch=result.launch_time,
            atomic=result.atomic_time,
            num_launches=result.num_launches,
            result=result,
        )


def training_step_time(
    shapes: list[LayerShape],
    batch: int,
    device: DeviceSpec,
    scc_strategy: str = "dsxplore",
    scc_backward: str = "input_centric",
) -> StepTime:
    """Simulated fwd+bwd+update time for one mini-batch."""
    kernels = model_step_kernels(
        shapes, batch, scc_strategy=scc_strategy, scc_backward=scc_backward,
        include_backward=True,
    )
    return StepTime.from_result(simulate_kernels(kernels, device))


def inference_time(
    shapes: list[LayerShape],
    batch: int,
    device: DeviceSpec,
    scc_strategy: str = "dsxplore",
) -> StepTime:
    """Simulated forward-only latency for one batch."""
    kernels = model_step_kernels(
        shapes, batch, scc_strategy=scc_strategy, include_backward=False
    )
    return StepTime.from_result(simulate_kernels(kernels, device))


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
