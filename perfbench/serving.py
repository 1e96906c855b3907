"""What the two open-loop serving workloads share: the run itself, the
per-request records, the end-to-end and per-layer summaries, and the
bitwise output check.

A workload module supplies a *transport*: an object with

- ``name`` (``"router"`` or ``"gateway"``), ``REF_RATE``, ``PROBE_RATE``,
  ``MIX``, ``MEAN_BURST`` (``None`` for Poisson arrivals), ``SLO_S`` and
  ``SLACK`` (requests one bucket or burst may leave in flight);
- ``setup(seed)``: build, register and warm the models and start serving;
  returns the set-up timings ``{"setup", "build", "plan"}``;
- ``drive(phase, index)``: send one phase's arrivals on schedule, read
  every result as soon as it exists, return the phase's ``Record`` list;
- ``stop()``, ``direct(key, image, bucket)`` (a direct forward of the same
  model at the same (shape, bucket)) and ``totals()`` (rows served,
  engine seconds and retries so far).

Reference-rate phases give SLO attainment, latency and the failure
accounting.  Capacity probes overload the program on purpose and give the
rate it sustains; the requests they shed or refuse are reported beside the
capacity figure rather than as failed operations.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from perfbench import stats
from perfbench.common import BUCKETS, Outcome, Result, backend_layers, ms
from perfbench.loadgen import build_phases, host_probe_ms
from perfbench.trace import self_times

SAMPLE = 12      # served responses re-computed per run for the bitwise check
SETUPS = 3       # set-ups per run; setup_s is their median
POOL = 32        # distinct images per (model, shape)
SETTLE_S = 0.5   # idle gap after a drained probe, before reference traffic


@dataclass
class Record:
    """One request as the load generator saw it."""

    phase: int
    model: str                  # key into the workload's request mix
    image: int
    due: float                  # when the schedule said to send it
    sent: float                 # when the sender actually sent it
    outcome: str = "pending"    # "ok", or the exception class that ended it
    done: float = 0.0           # when it ended, either way
    queue_wait: float = 0.0     # submit -> batch start, from the program
    bucket: int = 0
    rid: tuple | None = None    # (model name, request id) inside the program
    output: np.ndarray | None = None

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lag(self) -> float:
        return self.sent - self.due


def run(transport, seed: int, seconds: float, tracer=None) -> Result:
    """Set up ``SETUPS`` times, drive the phase plan, check and summarise."""
    from repro.backend import plan_cache_stats

    rng = np.random.default_rng(seed)
    phases = build_phases(rng, seconds, transport.REF_RATE, transport.PROBE_RATE,
                          transport.MIX, POOL, mean_burst=transport.MEAN_BURST)
    if tracer is not None:
        # Every probe and every other reference phase is traced; the
        # untraced reference phases give the tracing overhead.
        refs = [p for p in phases if p.kind == "ref"]
        for p in phases:
            p.traced = p.kind == "cap" or refs.index(p) % 2 == 0
    probes = [host_probe_ms()]
    setups = []
    for k in range(SETUPS):
        if k:
            transport.stop()
        setups.append(transport.setup(seed))

    records: list[Record] = []
    served = []          # (rows, engine seconds) per phase
    cache0 = plan_cache_stats()
    for index, phase in enumerate(phases):
        if index and phase.kind == "ref":
            time.sleep(SETTLE_S)
        before = transport.totals()
        if tracer is not None:
            tracer.enabled = phase.traced
        phase.start = time.perf_counter() + 0.002
        records.extend(transport.drive(phase, index))
        phase.end = time.perf_counter()
        if tracer is not None:
            tracer.enabled = False
        after = transport.totals()
        served.append((after[0] - before[0], after[1] - before[1]))
        probes.append(host_probe_ms())
    transport.stop()
    cache1 = plan_cache_stats()
    spans = tracer.take() if tracer is not None else []

    outcome = Outcome()
    lines = account(records, phases, outcome)
    check_outputs(records, outcome, transport.direct, seed)
    e2e, more = end_to_end(records, phases, served, transport.SLO_S, transport.SLACK,
                           statistics.median(s["setup"] for s in setups))
    per_layer = {"host.probe_ms": statistics.median(probes)}
    if tracer is not None:
        per_layer = layers(records, phases, spans, transport.name, cache0, cache1,
                           setups[-1], probes, transport.totals()[2])
    return Result(e2e, per_layer, outcome, more + lines, spans)


def check_outputs(records, outcome: Outcome, direct, seed: int) -> None:
    """Re-compute a seeded sample of served responses with a direct forward
    of the same model at the same (shape, bucket); any bit that differs is
    a failed operation."""
    served = [r for r in records if r.ok]
    rng = np.random.default_rng(seed + 99)
    picks = rng.choice(len(served), size=min(SAMPLE, len(served)), replace=False)
    for k in sorted(picks):
        r = served[k]
        expect = direct(r.model, r.image, r.bucket)
        same = expect.dtype == r.output.dtype and np.array_equal(expect, r.output)
        outcome.check(same, f"{r.model} image {r.image} at bucket {r.bucket}")


def account(records, phases, outcome: Outcome) -> list[str]:
    """Reference-phase requests are the workload's operations: each one
    that ended in anything but a result is a failed operation."""
    probe_sent = probe_missed = 0
    failures: dict[str, int] = {}
    for r in records:
        if phases[r.phase].kind == "ref":
            outcome.attempted += 1
            if not r.ok:
                outcome.failed += 1
                failures[r.outcome] = failures.get(r.outcome, 0) + 1
        else:
            probe_sent += 1
            probe_missed += not r.ok
    lines = []
    if failures:
        lines.append("reference-rate failures: " + ", ".join(
            f"{k} {v}" for k, v in sorted(failures.items())))
    lines.append(f"capacity probes: {probe_sent} sent, {probe_missed} shed, "
                 f"refused or failed")
    return lines


def end_to_end(records, phases, served, slo_s: float, slack: int,
               setup_s: float) -> tuple[dict, list[str]]:
    ref = [r for r in records if phases[r.phase].kind == "ref"]
    lat = [ms(r.latency) for r in ref if r.ok]
    tail = stats.tail(lat)
    by_phase: dict[int, list[Record]] = {}
    for r in records:
        by_phase.setdefault(r.phase, []).append(r)
    probes = []
    rows = exec_s = 0.0
    for i, phase in enumerate(phases):
        if phase.kind != "cap":
            continue
        recs = by_phase.get(i, [])
        done = [r.done for r in recs if r.ok]
        probes.append(stats.RatePhase(
            rate=phase.rate, busy=max(done, default=phase.start) - phase.start,
            completed=len(done),
            growing=stats.backlog_growing([r.due for r in recs], [r.done for r in recs],
                                          phase.start, phase.start + phase.duration,
                                          slack),
        ))
        rows += served[i][0]
        exec_s += served[i][1]
    capacity, overloaded = stats.capacity(probes)
    e2e = {
        "setup_s": setup_s,
        "train_samples_per_s": rows / exec_s if exec_s else 0.0,
        "latency_ms_p50": statistics.median(lat) if lat else 0.0,
        "latency_ms_tail": tail.value if tail else (max(lat) if lat else 0.0),
        "slo_attain": sum(1 for r in ref if r.ok and r.latency <= slo_s) / len(ref)
        if ref else 0.0,
        "capacity_rps": capacity,
    }
    lines = [f"reference rate: {len(ref)} requests; latency p50 "
             f"{e2e['latency_ms_p50']:.1f} ms, tail "
             f"{tail.label() if tail else 'n/a'}; SLO {ms(slo_s):.0f} ms",
             f"capacity probes at {phases[-1].rate:g}/s: completed "
             + ", ".join(f"{p.completed / p.busy:.1f}/s" for p in probes)
             + ("" if overloaded else
                "; WARNING: a probe did not overload, capacity is a lower bound")]
    return e2e, lines


def layers(records, phases, spans, transport: str, cache0: dict, cache1: dict,
           setup: dict, probes: list[float], retries: int) -> dict:
    """Per-layer metrics of a traced serving run; times are per batch."""
    selfs = self_times(spans)
    runs = [s for s in spans if s.name == "engine.run" and s.attrs and "exec_s" in s.attrs]
    nb = max(1, len(runs))
    out = backend_layers(spans, selfs, nb, cache0, cache1, setup)
    run_of = {}
    by_bucket: dict[int, list[float]] = {b: [] for b in BUCKETS}
    for s in runs:
        for rid in s.attrs["ids"]:
            run_of[(s.attrs["model"], rid)] = s
        by_bucket.setdefault(s.attrs["bucket"], []).append(ms(s.attrs["exec_s"]))
    for b in BUCKETS:
        sample = by_bucket[b]
        tail = stats.tail(sample)
        out[f"engine.exec_ms_p50.b{b}"] = statistics.median(sample) if sample else 0.0
        out[f"engine.exec_ms_tail.b{b}"] = tail.value if tail else (max(sample) if sample else 0.0)

    ref = [r for r in records if phases[r.phase].kind == "ref"]
    served = [r for r in ref if r.ok]
    waits = [ms(r.queue_wait) for r in served]
    lags = [ms(r.lag) for r in ref]
    # A traced request's latency splits into the sender's lag, the wait in
    # the scheduler's queue (the program's own figure: waiting is not a call,
    # so it has no span) and its batch's engine.run span; the remainder is
    # the transport's overhead.
    traced = [r for r in served if phases[r.phase].traced and r.rid in run_of]
    spent = [r.lag + r.queue_wait + run_of[r.rid].dur for r in traced]
    overheads = [ms(r.latency - s) for r, s in zip(traced, spent)]

    def post_start(rs):   # batch start -> request end
        return [r.latency - r.lag - r.queue_wait for r in rs]

    on = post_start(r for r in served if phases[r.phase].traced)
    off = post_start(r for r in served if not phases[r.phase].traced)
    traced_wall = sum(p.end - p.start for p in phases if p.traced)
    rows = sum(s.attrs["rows"] for s in runs)
    wait_tail = stats.tail(waits)
    lag_tail = stats.tail(lags)
    out.update({
        "sched.queue_wait_ms_p50": statistics.median(waits) if waits else 0.0,
        "sched.queue_wait_ms_tail": wait_tail.value if wait_tail else 0.0,
        "sched.batch_fill": rows / sum(s.attrs["bucket"] for s in runs) if runs else 0.0,
        "sched.batch_size_mean": rows / nb,
        "sched.shed": sum(1 for r in records if r.outcome in ("DeadlineExceeded", "RequestShed")),
        "sched.rejected": sum(1 for r in records if r.outcome == "QueueFull"),
        "engine.busy_frac": sum(s.attrs["exec_s"] for s in runs) / traced_wall
        if traced_wall else 0.0,
        "engine.retries": retries,
        f"{transport}.overhead_ms_p50": statistics.median(overheads) if overheads else 0.0,
        "loadgen.lag_ms_tail": lag_tail.value if lag_tail else 0.0,
        "host.probe_ms": statistics.median(probes),
        "trace.overhead_frac": statistics.median(on) / statistics.median(off) - 1.0
        if on and off else 0.0,
        "trace.accounted_frac": sum(spent) / sum(r.latency for r in traced)
        if traced else 0.0,
    })
    return out
