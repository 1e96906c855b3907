"""Device specifications for the execution model."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DeviceSpec:
    """The handful of hardware parameters the execution model consumes.

    Defaults (see :func:`tesla_v100`) follow the paper's platform section:
    Tesla V100, 5120 CUDA cores, 15.7 TFLOPs peak FP32, 32 GB HBM2.
    """

    name: str
    num_sms: int
    cores_per_sm: int
    clock_ghz: float
    peak_flops: float                  # FP32 FLOP/s
    mem_bandwidth: float               # bytes/s
    mem_capacity: int                  # bytes
    max_threads_per_sm: int = 2048
    kernel_launch_overhead: float = 5e-6   # seconds per raw CUDA launch
    framework_op_overhead: float = 2e-5    # extra secs per *framework-composed* op
    atomic_conflict_rate: float = 2.0e11   # serialised conflicting atomics/s
    interconnect_bandwidth: float = 2.5e10  # bytes/s per link (PCIe3 x16-ish)
    interconnect_latency: float = 1e-5     # seconds per transfer hop

    @property
    def cuda_cores(self) -> int:
        return self.num_sms * self.cores_per_sm

    @property
    def max_resident_threads(self) -> int:
        return self.num_sms * self.max_threads_per_sm

    def occupancy(self, threads: int) -> float:
        """Fraction of peak throughput a launch of ``threads`` can reach.

        Below full residency the device is latency-bound and throughput
        scales ~linearly with thread count (this produces the batch-size
        knee of paper Fig. 13); above it, full throughput.
        """
        if threads <= 0:
            raise ValueError(f"threads must be positive, got {threads}")
        return min(1.0, threads / self.max_resident_threads)


def tesla_v100() -> DeviceSpec:
    """The paper's evaluation GPU (Section V-A)."""
    return DeviceSpec(
        name="Tesla V100",
        num_sms=80,
        cores_per_sm=64,
        clock_ghz=1.53,
        peak_flops=15.7e12,
        mem_bandwidth=900e9,
        mem_capacity=32 * 1024**3,
    )


def nvidia_a100() -> DeviceSpec:
    """A newer device for what-if studies (not in the paper): the relative
    strategy orderings should be device-robust, which the test suite checks."""
    return DeviceSpec(
        name="NVIDIA A100",
        num_sms=108,
        cores_per_sm=64,
        clock_ghz=1.41,
        peak_flops=19.5e12,
        mem_bandwidth=1555e9,
        mem_capacity=40 * 1024**3,
        interconnect_bandwidth=6e10,   # NVLink 3-ish per direction share
    )
