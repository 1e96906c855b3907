"""Metric catalogue, run accounting and the environment stamp."""
from __future__ import annotations

import os
import platform
from dataclasses import dataclass, field

import numpy as np

#: End-to-end metrics every run measures and prints, name -> unit.  Every
#: workload reports every one; perfbench/README.md says what each means per
#: workload.
MEASURED = {
    "setup_s": "s",
    "train_samples_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "slo_attain": "frac",
    "capacity_rps": "1/s",
}
#: The bounded end-to-end metrics: the result line of an untraced run.
#: Serving latency is measured and printed but not bounded: over four sets of
#: ten seeds on a 2-CPU host its spread between quartiles was 0.05-0.26 of the
#: median for p50 and 0.15-0.47 for the tail, reaching the largest bound (0.25)
#: a gate may use.  Traced runs carry it as a per-layer metric.
END_TO_END = {name: MEASURED[name] for name in
              ("setup_s", "train_samples_per_s", "slo_attain", "capacity_rps")}

BUCKETS = (1, 2, 4, 8)

#: Per-layer metrics (traced run), name -> unit.  Layer times and counts are
#: per training step or per served batch; latency is per request, as above.
PER_LAYER = {
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "backend.conv2d_grouped_ms": "ms",
    "backend.conv2d_grouped_bwd_ms": "ms",
    "backend.conv2d_dense_ms": "ms",
    "backend.conv2d_dense_bwd_ms": "ms",
    "backend.scc_fwd_ms": "ms",
    "backend.scc_bwd_ms": "ms",
    "backend.pool_ms": "ms",
    "backend.kernel_calls": "count",
    "backend.plan_hit_rate": "frac",
    "backend.plan_builds": "count",
    "backend.model_plan_build_s": "s",
    "models.build_s": "s",
    "core.scc_gemm_calls": "count",
    "core.scc_bytes_materialized": "bytes",
    "tensor.backward_self_ms": "ms",
    "train.forward_ms": "ms",
    "train.backward_ms": "ms",
    "train.optim_ms": "ms",
    "train.unattributed_ms": "ms",
    "train.step_ms_p50": "ms",
    "train.step_ms_tail": "ms",
    "sched.queue_wait_ms_p50": "ms",
    "sched.queue_wait_ms_tail": "ms",
    "sched.batch_fill": "frac",
    "sched.batch_size_mean": "count",
    "sched.shed": "count",
    "sched.rejected": "count",
    **{f"engine.exec_ms_{stat}.b{b}": "ms" for stat in ("p50", "tail") for b in BUCKETS},
    "engine.busy_frac": "frac",
    "engine.retries": "count",
    "router.overhead_ms_p50": "ms",
    "gateway.overhead_ms_p50": "ms",
    "loadgen.lag_ms_tail": "ms",
    "host.probe_ms": "ms",
    "trace.overhead_frac": "frac",
    "trace.accounted_frac": "frac",
}

#: Kernel span name -> per-layer metric holding its time per step/batch.
KERNEL_METRICS = {
    "backend.conv2d_grouped": "backend.conv2d_grouped_ms",
    "backend.conv2d_grouped_bwd": "backend.conv2d_grouped_bwd_ms",
    "backend.conv2d_dense": "backend.conv2d_dense_ms",
    "backend.conv2d_dense_bwd": "backend.conv2d_dense_bwd_ms",
    "backend.scc_fwd": "backend.scc_fwd_ms",
    "backend.scc_bwd": "backend.scc_bwd_ms",
    "backend.pool": "backend.pool_ms",
}


@dataclass
class Outcome:
    """Operations attempted and failed, and the correctness verdict."""

    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """One correctness check: an operation that fails when ``ok`` is false."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.mismatches += 1
            self.notes.append(f"MISMATCH {what}")

    @property
    def correct(self) -> bool:
        return self.mismatches == 0


@dataclass
class Result:
    """What one workload run hands back to the runner."""

    end_to_end: dict[str, float]
    per_layer: dict[str, float]
    outcome: Outcome
    lines: list[str]            # human-readable report lines
    spans: list = field(default_factory=list)


def blas_setting() -> dict:
    """The BLAS library and its thread settings as this process sees them."""
    info = {k: os.environ.get(k) for k in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError):
        info["library"] = None
    return info


def env_block() -> dict:
    """The part of the stamp two runs must share to be compared."""
    from repro.backend import env_stamp

    return {
        "env": env_stamp(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "blas": blas_setting(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def ms(seconds: float) -> float:
    return seconds * 1e3


def backend_layers(spans, selfs: dict, per: int, cache0: dict, cache1: dict,
                   setup: dict) -> dict:
    """The kernel, SCC-count and plan-cache metrics training and serving
    share.  Kernel self times, calls and ``KernelStats`` counts are divided
    by ``per`` (traced steps or batches); cache figures are deltas of
    ``plan_cache_stats()`` over the measured window; ``setup`` holds the
    last set-up's timings."""
    out = {metric: 0.0 for metric in KERNEL_METRICS.values()}
    calls = gemm = nbytes = 0
    for s in spans:
        metric = KERNEL_METRICS.get(s.name)
        if metric is None:
            continue
        out[metric] += ms(selfs[s.id]) / per
        calls += 1
        if s.attrs:
            gemm += s.attrs["gemm_calls"]
            nbytes += s.attrs["bytes_materialized"]
    hits = cache1["hits"] - cache0["hits"]
    misses = cache1["misses"] - cache0["misses"]
    out.update({
        "backend.kernel_calls": calls / per,
        "backend.plan_hit_rate": hits / (hits + misses) if hits + misses else 1.0,
        "backend.plan_builds": cache1["builds"] - cache0["builds"],
        "backend.model_plan_build_s": setup["plan"],
        "models.build_s": setup["build"],
        "core.scc_gemm_calls": gemm / per,
        "core.scc_bytes_materialized": nbytes / per,
    })
    return out
