"""Sharded serving scaling — worker processes vs the GIL-bound thread pool.

The process tier's reason to exist: a multi-model drain whose per-model
work is *GIL-bound* (the pure-python ``reference`` backend stands in for
scheduling/bookkeeping-heavy models) gains nothing from the in-process
thread pool — every shard time-slices one interpreter lock — but scales
across :class:`~repro.serve.ShardedRouter` worker processes.

Protocol (the bench_backend_scaling recipe, applied to processes):

1. **Bitwise gate** — every output served by a shard process is asserted
   bit-identical to the same registry model served by an in-process
   :class:`~repro.serve.Router` (shards rebuild weights deterministically
   from ``(name, seed)``; nothing numeric crosses a pipe untested).
2. **Measured serial drain** — the in-process router's per-model drain
   costs, traced with :func:`repro.backend.parallel.trace_parallel`
   (serial execution, clean per-task walls).  On GIL-bound work the
   single-process thread pool cannot beat this serial wall — the GIL *is*
   the serialisation — so it doubles as the thread-pool baseline.
3. **Modelled process sweep** —
   :func:`repro.gpusim.host_process_step_time` prices the same drains
   sharded over K worker processes: LPT makespan across lanes + the
   driving process's Amdahl residue + every RPC round trip and payload
   byte on the pipe fabric (``host_ipc_*``).  The gate: **>= 1.8x modelled
   throughput at 4 processes** vs the single-process baseline.
4. **Calibration drift** — ``DeviceSpec.process_speedup`` (the closed-form
   Amdahl curve the rest of gpusim quotes) must track the step-time model
   within the standard drift bounds, and the *measured* shard-pipe RPC
   latency is reported against ``host_ipc_latency`` so the constants stay
   honest on real hosts.

Measured multi-process wall time is reported alongside but not gated — on
a core-starved container the shard processes time-slice one core (see
``env.host_cpus`` in the JSON), which is exactly why the sweep is modelled
from clean serial traces.
"""
import time

import numpy as np

from common import emit, full_mode
from repro.backend.parallel import num_workers, trace_parallel
from repro.gpusim import host_fabric_device, host_process_step_time, tesla_v100
from repro.serve import Router, ServingPolicy, ShardedRouter
from repro.utils import format_table, seed_all

INPUT = (3, 16, 16)
PROCESS_SWEEP = (1, 2, 4)
GATE_PROCESSES = 4
GATE_SPEEDUP = 1.8
#: (name, seed) per served model; the pure-python reference backend makes
#: each drain GIL-bound — the workload class the process tier targets.
MODELS = tuple((f"gate-{i}", 31 + i) for i in range(4))


def _register_all(front) -> None:
    for name, seed in MODELS:
        front.register(
            name, "mobilenet", input_shapes=[INPUT],
            scheme="scc", width_mult=0.25, impl="dsxplore",
            backend="reference", seed=seed,
        )


def _images(per_model: int):
    rng = np.random.default_rng(9)
    return {
        name: [rng.standard_normal(INPUT).astype(np.float32)
               for _ in range(per_model)]
        for name, _ in MODELS
    }


def _policy() -> ServingPolicy:
    # Max bucket above per-model request counts: nothing inline-flushes at
    # submit time, so the traced flush() owns the entire drain.
    return ServingPolicy(bucket_sizes=(1, 2, 4, 8, 16), max_latency=30.0)


def _assert_bitwise(images) -> int:
    """Shard-served outputs == in-process router outputs, bit for bit."""
    router = Router(server_config=_policy())
    _register_all(router)
    expect = {}
    with num_workers(1):   # strictly serial in-process reference drain
        for name, _ in MODELS:
            handles = [router.submit(name, img) for img in images[name]]
            router.flush()
            expect[name] = [router.result(h).output for h in handles]

    checked = 0
    with ShardedRouter(shards=len(MODELS), server_config=_policy()) as sharded:
        _register_all(sharded)
        handles = {
            name: [sharded.submit(name, img) for img in images[name]]
            for name, _ in MODELS
        }
        # One broadcast flush: shard drains overlap across processes.
        sharded.flush()
        for name, _ in MODELS:
            for handle, ref in zip(handles[name], expect[name]):
                got = sharded.result(handle).output
                assert np.array_equal(ref, got), (
                    f"shard-served output diverged from in-process router "
                    f"for {name}"
                )
                checked += 1
    return checked


def _traced_drain(images, repeats: int):
    """Clean serial per-model drain costs + the wall around them.

    De-noised across repeats: the wall is the best observed, and the task
    costs are the elementwise minimum over the *sorted* per-repeat lists
    (LPT only needs the multiset), so a host-load spike that inflates one
    drain in one repeat cannot skew the makespan model.
    """
    walls, task_lists = [], []
    for _ in range(repeats):
        router = Router(server_config=_policy())
        _register_all(router)
        for name, _ in MODELS:
            for img in images[name]:
                router.submit(name, img)
        # A pool wider than one worker makes the drain one pooled task per
        # model (trace_parallel then times the tasks serially).
        with num_workers(len(MODELS)), trace_parallel() as regions:
            start = time.perf_counter()
            router.flush()
            walls.append(time.perf_counter() - start)
        task_lists.append(sorted(t for r in regions for t in r.task_seconds))
    count = min(len(tasks) for tasks in task_lists)
    task_seconds = [min(tasks[i] for tasks in task_lists)
                    for i in range(count)]
    return min(walls), task_seconds


def _measured_ipc(images) -> dict:
    """Live shard-pipe RPC costs, reported against the DeviceSpec constants."""
    trips = 32
    with ShardedRouter(shards=2, server_config=_policy()) as sharded:
        _register_all(sharded)
        start = time.perf_counter()
        for _ in range(trips):
            sharded.reset_metrics()   # one no-op broadcast round trip
        latency = (time.perf_counter() - start) / trips
        payload = images[MODELS[0][0]][0]
        # Time only submits that fill no bucket: the submit that fills the
        # largest bucket runs that batch inline, which is compute, not pipe.
        burst = max(_policy().bucket_sizes) - 1
        submit_seconds, sent = 0.0, 0
        while sent < trips:
            count = min(burst, trips - sent)
            start = time.perf_counter()
            for _ in range(count):
                sharded.submit(MODELS[0][0], payload)
            submit_seconds += time.perf_counter() - start
            sent += count
            sharded.flush()
        bandwidth = trips * payload.nbytes / max(submit_seconds, 1e-9)
    return {"measured_rpc_latency_s": latency,
            "measured_pipe_bandwidth_Bps": bandwidth,
            "rpc_trips": trips}


def report_sharded_router():
    seed_all(0)
    per_model = 8 if full_mode() else 4
    repeats = 5 if full_mode() else 3
    device = tesla_v100()
    images = _images(per_model)

    bitwise_checked = _assert_bitwise(images)
    serial_wall, task_seconds = _traced_drain(images, repeats)

    # IPC payload the process sweep must pay for: every image in and every
    # logits row out, plus one RPC per submit/result and one flush per shard.
    image_bytes = int(np.prod(INPUT)) * 4
    total_requests = per_model * len(MODELS)
    ipc_bytes = total_requests * (image_bytes + 10 * 4)
    rows, data_rows = [], []
    speedups = {}
    for processes in PROCESS_SWEEP:
        step = host_process_step_time(
            task_seconds, processes, device,
            ipc_bytes=ipc_bytes if processes > 1 else 0.0,
            round_trips=2 * total_requests + processes,
        )
        modeled = step.total
        speedup = serial_wall / modeled if modeled else 0.0
        speedups[processes] = speedup
        amdahl = device.process_speedup(processes)
        drift = abs(amdahl - speedup) / speedup if speedup else 0.0
        row = {
            "processes": processes,
            "serial_wall_ms": round(serial_wall * 1e3, 3),
            "modeled_ms": round(modeled * 1e3, 3),
            "modeled_compute_ms": round(step.compute * 1e3, 3),
            "modeled_ipc_ms": round(step.communication * 1e3, 3),
            "speedup_modeled": round(speedup, 3),
            "gpusim_process_speedup": round(amdahl, 3),
            "amdahl_drift": round(drift, 3),
        }
        data_rows.append(row)
        rows.append([
            str(processes), f"{row['serial_wall_ms']:.2f}",
            f"{row['modeled_ms']:.2f}", f"{row['modeled_ipc_ms']:.3f}",
            f"{row['speedup_modeled']:.2f}",
            f"{row['gpusim_process_speedup']:.2f}",
        ])

    gate_speedup = speedups[GATE_PROCESSES]
    assert gate_speedup >= GATE_SPEEDUP, (
        f"sharded router modelled only {gate_speedup:.2f}x at "
        f"{GATE_PROCESSES} processes (gate {GATE_SPEEDUP}x) — "
        f"tasks {task_seconds}"
    )
    # Calibration drift: the closed-form Amdahl curve must describe the
    # step-time model (same bounds bench_backend_scaling uses for the
    # thread pool: every point within 50%).
    for row in data_rows:
        if row["processes"] > 1:
            assert row["amdahl_drift"] < 0.50, row

    ipc = _measured_ipc(images)
    fabric = host_fabric_device(device)
    ipc["spec_rpc_latency_s"] = fabric.interconnect_latency
    ipc["spec_pipe_bandwidth_Bps"] = fabric.interconnect_bandwidth
    # Sanity gates only — real pipe numbers vary hugely across hosts; the
    # JSON trail is what keeps the DeviceSpec constants honest over time.
    assert ipc["measured_rpc_latency_s"] < 0.25, ipc
    assert ipc["measured_pipe_bandwidth_Bps"] > 1e5, ipc

    table = format_table(
        ["processes", "serial wall (ms)", "modeled (ms)", "IPC (ms)",
         "modeled speedup", "gpusim speedup"],
        rows,
        title="Sharded-router scaling: GIL-bound multi-model drain, "
              "traced serially and modelled across worker processes "
              "(shard outputs asserted bitwise-equal to in-process serving)",
    )
    table += (
        "\nSerial wall = the thread-pool baseline (GIL-bound drains cannot"
        "\noverlap in one interpreter); modeled = LPT makespan across"
        "\nprocesses + Amdahl dispatch residue + pipe RPC/payload costs"
        "\n(host_ipc_* constants).  gpusim = DeviceSpec.process_speedup,"
        "\nthe closed-form curve calibrated on this model.  Measured pipe"
        f"\nRPC latency: {ipc['measured_rpc_latency_s'] * 1e3:.2f} ms/trip"
        f" (spec {ipc['spec_rpc_latency_s'] * 1e3:.2f} ms)."
    )
    data = {
        "process_sweep": list(PROCESS_SWEEP),
        "gate": {"processes": GATE_PROCESSES, "min_speedup": GATE_SPEEDUP},
        "gate_speedup": round(gate_speedup, 3),
        "bitwise_equal": True,
        "bitwise_outputs_checked": bitwise_checked,
        "models": [name for name, _ in MODELS],
        "requests": total_requests,
        "task_seconds": [round(t, 6) for t in task_seconds],
        "ipc_calibration": ipc,
        "rows": data_rows,
    }
    return emit("sharded_router", table, data=data), data


def test_sharded_router_gate():
    _, data = report_sharded_router()
    assert data["bitwise_equal"]
    assert data["bitwise_outputs_checked"] == data["requests"]
    assert data["gate_speedup"] >= GATE_SPEEDUP
    at_gate = [r for r in data["rows"] if r["processes"] == GATE_PROCESSES]
    assert at_gate and at_gate[0]["amdahl_drift"] < 0.50


if __name__ == "__main__":
    report_sharded_router()
