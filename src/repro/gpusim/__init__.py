"""GPU execution-model simulator (replaces the paper's Tesla V100 testbed).

The paper's runtime results (Figures 7-14, Table V) compare *implementation
strategies of the same math*; their relative performance is governed by
first-order, countable quantities:

- floating-point work and DRAM traffic (roofline),
- SM occupancy (undersaturated launches don't get peak throughput),
- per-kernel launch overhead (composed-operator implementations launch many
  small kernels; the fused DSXplore kernel launches one),
- serialisation of conflicting atomic updates (the output-centric backward),
- data-duplication footprint (the channel-stack OOM at ImageNet scale),
- inter-GPU all-reduce bandwidth (multi-GPU scaling).

:mod:`repro.gpusim` models exactly these effects and nothing more.  Inputs
are per-strategy workload descriptions built from real model shapes
(:mod:`repro.gpusim.workloads`), cross-checked against the instrumentation
counters the real kernels collect while running through the
:mod:`repro.backend` registry (:mod:`repro.gpusim.crosscheck`).
"""
from repro.gpusim.crosscheck import StatsCrossCheck, crosscheck_all, crosscheck_scc_stats
from repro.gpusim.device import DeviceSpec, tesla_v100
from repro.gpusim.kernel import KernelLaunch, kernel_time, simulate_kernels
from repro.gpusim.memory import MemoryModel, MemoryReport, OutOfMemoryError
from repro.gpusim.workloads import (
    LayerShape,
    extract_layer_shapes,
    scc_layer_kernels,
    conv_layer_kernels,
    model_step_kernels,
)
from repro.gpusim.timeline import (
    StepTime,
    inference_time,
    training_step_time,
)
from repro.gpusim.multigpu import (
    data_parallel_step_time,
    ring_allreduce_time,
)

__all__ = [
    "StatsCrossCheck",
    "crosscheck_all",
    "crosscheck_scc_stats",
    "DeviceSpec",
    "tesla_v100",
    "KernelLaunch",
    "kernel_time",
    "simulate_kernels",
    "MemoryModel",
    "MemoryReport",
    "OutOfMemoryError",
    "LayerShape",
    "extract_layer_shapes",
    "scc_layer_kernels",
    "conv_layer_kernels",
    "model_step_kernels",
    "StepTime",
    "training_step_time",
    "inference_time",
    "ring_allreduce_time",
    "data_parallel_step_time",
]
