"""Multi-GPU data-parallel timing model (paper Figure 14).

Synchronous data parallelism on K devices: each device computes a 1/K batch
shard, then gradients are ring-all-reduced.  Ring all-reduce moves
``2*(K-1)/K * bytes`` per device over the interconnect, plus per-hop
latency.  Small K shows sub-linear scaling (communication not yet amortised,
matching the paper's observation); larger K approaches linear as the compute
share per device shrinks faster than the (nearly K-independent) all-reduce
volume grows.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.gpusim.device import DeviceSpec
from repro.gpusim.timeline import training_step_time
from repro.gpusim.workloads import LayerShape


def ring_allreduce_time(bytes_per_device: float, num_devices: int, device: DeviceSpec) -> float:
    """Classic 2(K-1)/K ring all-reduce cost."""
    if num_devices < 1:
        raise ValueError(f"num_devices must be >= 1, got {num_devices}")
    if num_devices == 1:
        return 0.0
    k = num_devices
    volume = 2.0 * (k - 1) / k * bytes_per_device
    hops = 2 * (k - 1)
    return volume / device.interconnect_bandwidth + hops * device.interconnect_latency


@dataclass
class ParallelStepTime:
    compute: float
    communication: float
    num_devices: int

    @property
    def total(self) -> float:
        return self.compute + self.communication


def data_parallel_step_time(
    shapes: list[LayerShape],
    batch: int,
    num_devices: int,
    device: DeviceSpec,
    gradient_bytes: float,
    scc_strategy: str = "dsxplore",
    overlap_fraction: float = 0.5,
) -> ParallelStepTime:
    """Per-step time on K devices.

    ``overlap_fraction`` models communication/computation overlap (NCCL
    overlaps all-reduce of early layers with backward of later ones).
    """
    if not 0.0 <= overlap_fraction <= 1.0:
        raise ValueError(f"overlap_fraction must be in [0,1], got {overlap_fraction}")
    shard = max(1, batch // num_devices)
    compute = training_step_time(shapes, shard, device, scc_strategy=scc_strategy).total
    comm = ring_allreduce_time(gradient_bytes, num_devices, device)
    exposed = comm * (1.0 - overlap_fraction) if num_devices > 1 else 0.0
    return ParallelStepTime(compute=compute, communication=exposed, num_devices=num_devices)
