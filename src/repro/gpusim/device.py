"""Device specifications for the execution model."""
from __future__ import annotations

import math
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
    # Host-side cost of building one execution plan (index tables +
    # einsum_path search) on a cache miss.  Calibrated against the measured
    # cold-vs-warm deltas of bench_ablation_plan_cache (~0.1-0.6 ms per
    # plan); charged once per unique workload on a cold first step, zero in
    # steady state.
    plan_build_overhead: float = 2e-4
    atomic_conflict_rate: float = 2.0e11   # serialised conflicting atomics/s
    interconnect_bandwidth: float = 2.5e10  # bytes/s per link (PCIe3 x16-ish)
    interconnect_latency: float = 1e-5     # seconds per transfer hop
    # Host-pool scaling of the `threaded` kernel backend (Amdahl + per-worker
    # coordination): serial_fraction is the unshardable share of a step
    # (single-contraction kernels, pad/stage glue), coordination_cost the
    # relative overhead each extra worker adds (task submit/join, shard
    # imbalance).  Calibrated against the modelled worker sweep of
    # bench_backend_scaling; the post-tiling refresh (grouped conv + SCC
    # plus the tiled dense-conv / pull-GEMM workloads: ~3.1-3.4x untiled,
    # ~2.5x tiled at 4 workers) re-fits to the same serial fraction ~= 0.04
    # and coordination ~= 0.015.
    host_serial_fraction: float = 0.04
    host_coordination_cost: float = 0.015
    # Tiled-contraction terms (repro.backend.schedule): combining T per-tile
    # partials through the canonical fixed-order pairwise tree costs
    # ceil(log2 T) elementwise passes over the output, charged as a relative
    # overhead per combine level (fit to the bench_tiled_gemm tile sweep:
    # the 4-tile schedule-table workloads model ~1.7x @ 2 and ~2.4-2.9x @
    # 4 workers).
    # fusion_stage_discount is the relative time a staged epilogue
    # (bias/BN/activation applied while the output tile is cache-hot) saves
    # per absorbed stage versus materialising each elementwise op as its
    # own framework pass.
    tile_combine_overhead: float = 0.025
    fusion_stage_discount: float = 0.05

    @property
    def cuda_cores(self) -> int:
        return self.num_sms * self.cores_per_sm

    @property
    def max_resident_threads(self) -> int:
        return self.num_sms * self.max_threads_per_sm

    def parallel_speedup(self, workers: int) -> float:
        """Modelled speedup of the ``threaded`` host backend at ``workers``.

        Amdahl's law with a linear coordination term:
        ``1 / (s + (1 - s)/w + c * (w - 1))`` — monotone up to the point
        where coordination overtakes the shrinking parallel share, exactly
        the roll-off the measured scaling sweep shows.  Never below 1.0:
        the backend falls back to inline execution rather than losing to
        single-threaded numpy.
        """
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        s, c = self.host_serial_fraction, self.host_coordination_cost
        return max(1.0, 1.0 / (s + (1.0 - s) / workers + c * (workers - 1)))

    def parallel_efficiency(self, workers: int) -> float:
        """``parallel_speedup(workers) / workers``: 1.0 at one worker,
        decaying as the serial fraction and coordination cost bite."""
        return self.parallel_speedup(workers) / workers

    def tiled_speedup(self, workers: int, tiles: int) -> float:
        """Modelled speedup of a tiled contraction at ``workers`` workers.

        The :func:`parallel_speedup` Amdahl form with two tiling-specific
        corrections: the parallel share can use at most ``min(workers,
        tiles)`` lanes (a contraction cut into 2 tiles cannot feed 4
        workers), and the canonical fixed-order combine tree adds
        ``tile_combine_overhead * ceil(log2 tiles)`` relative serial work.
        ``tiles <= 1`` degrades to the untiled single-contraction kernel:
        speedup 1.0 at any worker count.
        """
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if tiles < 0:
            raise ValueError(f"tiles must be non-negative, got {tiles}")
        if tiles <= 1:
            return 1.0
        s, c = self.host_serial_fraction, self.host_coordination_cost
        lanes = min(workers, tiles)
        combine = self.tile_combine_overhead * math.ceil(math.log2(tiles))
        return max(
            1.0, 1.0 / (s + (1.0 - s) / lanes + c * (workers - 1) + combine)
        )

    def fused_epilogue_speedup(self, stages: int) -> float:
        """Relative speedup of folding ``stages`` elementwise epilogue ops
        (bias add, BN affine, activation) into the producing kernel versus
        running each as its own framework-composed pass."""
        if stages < 0:
            raise ValueError(f"stages must be non-negative, got {stages}")
        return 1.0 + self.fusion_stage_discount * stages

    def batching_queue_wait(
        self, arrival_rate: float, bucket: int, max_wait: float
    ) -> float:
        """Modelled mean batch-fill wait of the serving tier's bucketing.

        A request entering a bucket of ``bucket`` slots waits for up to
        ``bucket - 1`` later arrivals; with Poisson arrivals at
        ``arrival_rate``/s the expected fill time is ``(bucket - 1) /
        rate`` and a request's mean share of it is half.  The serving
        deadline caps the wait at ``max_wait`` (the ``max_latency`` flush).
        This is the queueing-delay term the adaptive
        :class:`repro.serve.sched.BucketPolicy` trades against batch
        throughput; :func:`repro.gpusim.timeline.serving_latency` combines
        it with the simulated execution time, and the scheduling-core tests
        cross-check the policy's bucket choice against the analytic
        optimum.
        """
        if bucket < 1:
            raise ValueError(f"bucket must be >= 1, got {bucket}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        if bucket == 1 or arrival_rate <= 0:
            return 0.0
        return 0.5 * min((bucket - 1) / arrival_rate, max_wait)

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
