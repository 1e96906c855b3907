"""Serving (beyond the paper's figures) — the async gateway's scheduling
policies, measured on deterministic virtual-clock simulations plus one real
asyncio wall-clock section.

The PR-7 scheduling core (``repro.serve.sched``) is pure: every decision
takes an explicit ``now``, so seeded Poisson traffic replayed through a
virtual-clock event loop yields a bit-identical schedule on any machine —
the three policy sections below are therefore safe for the perf-trajectory
comparator to gate on (ratio-named metrics, no wall-clock noise).

Reported:

- **adaptive bucketing** — light vs heavy Poisson traffic under fixed-small
  (bucket 1), fixed-large (bucket 8) and EWMA-adaptive bucket policies on a
  single execution lane: adaptive matches fixed-small latency when arrivals
  are sparse and fixed-large throughput when they are not, and its targets
  agree with the ``repro.gpusim`` analytic queueing optimum;
- **shed ablation** — the *same* overload trace under deadline-aware vs
  newest-first shedding: deadline-aware drops only requests whose latency
  budget is already blown (``dropped_viable == 0`` is asserted), newest-first
  tail-drops viable work and serves requests that then miss their SLO;
- **fairness ablation** — 95/5 traffic skew between a heavy and a light
  model on one lane: with DRR the light model's p95 stays within 1.5x its
  solo p95 (asserted), FIFO makes it queue behind the heavy backlog;
- **measured gateway** — a real ``AsyncGateway`` run on the event loop with
  the asserted bitwise-parity check against the synchronous ``Server``.
"""
import asyncio
import time
from collections import Counter, defaultdict, deque

import numpy as np

from common import emit, full_mode
from repro.serve import AsyncGateway, SchedCore, Server, ServingPolicy
from repro.utils import format_table, seed_all

INPUT = (3, 16, 16)


# ---------------------------------------------------------------------------
# Virtual-clock simulator: SchedCore + one execution lane, no wall clock
# ---------------------------------------------------------------------------

def poisson_trace(rng, rate: float, duration: float, model: str,
                  budget: float | None = None):
    """Seeded Poisson arrivals: (t, model, deadline) sorted by t."""
    out, t = [], 0.0
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= duration:
            return out
        out.append((t, model, None if budget is None else t + budget))


def simulate(core: SchedCore, trace, exec_time, exec_estimate: float = 0.0):
    """Replay ``trace`` through ``core`` on a single execution lane.

    ``exec_time(model, bucket)`` prices one batch; the lane serialises
    batches (the fairness policy decides the order each time it frees).
    Returns per-model latency/shed/goodput accounting.  Fully deterministic:
    the only clock is the trace's own timestamps.
    """
    queue = deque(trace)
    latencies = defaultdict(list)
    ontime = Counter()
    misses = Counter()
    shed = Counter()
    rejected = Counter()
    dropped_viable = Counter()
    now, lane_free = 0.0, 0.0

    def record_drop(victims, at):
        for victim in victims:
            shed[victim.model] += 1
            if not core.shed.blown(victim, at, exec_estimate):
                dropped_viable[victim.model] += 1

    while queue or core.pending_count():
        # Admit every arrival that has happened by `now`, at its own time.
        while queue and queue[0][0] <= now:
            t, model, deadline = queue.popleft()
            outcome = core.submit(model, INPUT, now=t, deadline=deadline)
            record_drop(outcome.displaced, t)
            if not outcome.accepted:
                rejected[model] += 1
                if deadline is None or deadline >= t + exec_estimate:
                    dropped_viable[model] += 1
        record_drop(core.shed_blown(now), now)
        if lane_free <= now:
            batch = core.next_batch(now)
            if batch is not None:
                done = now + exec_time(batch.model, batch.bucket)
                lane_free = done
                for request in batch.requests:
                    latencies[request.model].append(done - request.arrived_at)
                    if request.deadline is not None and done > request.deadline:
                        misses[request.model] += 1
                    else:
                        ontime[request.model] += 1
                continue
        # Nothing runnable at `now`: advance to the next decision point —
        # the next arrival, the core's next timer, or the lane freeing.
        times = [queue[0][0]] if queue else []
        if core.pending_count():
            event = core.next_event(now)
            if lane_free > now:
                # Lane busy: an already-due timer can only act once the
                # lane frees, so a stale event must not stall the clock.
                times.append(lane_free)
                if event is not None and event > now:
                    times.append(event)
            elif event is not None:
                # Epsilon-bump past strict boundaries (a deadline exactly
                # at `now + estimate` is viable now, blown just after).
                times.append(max(event, now + 1e-9))
        if not times:
            break
        now = max(now, min(times))
    return {
        "latencies": dict(latencies),
        "ontime": dict(ontime),
        "misses": dict(misses),
        "shed": dict(shed),
        "rejected": dict(rejected),
        "dropped_viable": dict(dropped_viable),
        "makespan": max(now, lane_free),
    }


def _pct(values, q):
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


# ---------------------------------------------------------------------------
# Section 1 — adaptive bucketing: latency vs throughput across load levels
# ---------------------------------------------------------------------------

WINDOW = 0.010                        # flush window (max_latency), seconds
EXEC_BASE, EXEC_SLOT = 1.0e-3, 0.125e-3   # batch cost: base + slot * bucket

BUCKET_POLICIES = {
    "fixed-1": dict(bucket_sizes=(1,), adaptive_buckets=False),
    "fixed-8": dict(bucket_sizes=(8,), adaptive_buckets=False),
    "adaptive": dict(bucket_sizes=(1, 2, 4, 8), adaptive_buckets=True),
}


def _bucket_exec(model, bucket):
    return EXEC_BASE + EXEC_SLOT * bucket


def measure_bucketing():
    scale = 2.0 if full_mode() else 1.0
    scenarios = {
        # 60 req/s: ~0.6 expected arrivals per window — batch-mates are not
        # coming, the right bucket is 1.  3000 req/s saturates bucket 1
        # (service rate 1/exec(1) ~= 889/s) and needs bucket 8 (4000/s).
        "light": dict(rate=60.0, duration=1.0 * scale),
        "heavy": dict(rate=3000.0, duration=0.25 * scale),
    }
    rows, data = [], {}
    for scenario, cfg in scenarios.items():
        data[scenario] = {}
        for policy, knobs in BUCKET_POLICIES.items():
            rng = np.random.default_rng(11)   # same trace for every policy
            trace = poisson_trace(rng, cfg["rate"], cfg["duration"], "m")
            core = SchedCore(max_latency=WINDOW, **knobs)
            core.add_model("m")
            out = simulate(core, trace, _bucket_exec)
            lat = out["latencies"]["m"]
            row = {
                "scenario": scenario,
                "policy": policy,
                "requests": len(lat),
                "p50_ms": round(_pct(lat, 50) * 1e3, 3),
                "p95_ms": round(_pct(lat, 95) * 1e3, 3),
                "throughput_rps": round(len(lat) / out["makespan"], 1),
                "final_bucket_target": core.bucket_target("m"),
            }
            rows.append(row)
            data[scenario][policy] = row
    # Adaptive lands on the right extreme of its range at both load levels.
    assert data["light"]["adaptive"]["final_bucket_target"] == 1, data
    assert data["heavy"]["adaptive"]["final_bucket_target"] == 8, data
    data["light_adaptive_vs_fixed8_p50_speedup"] = round(
        data["light"]["fixed-8"]["p50_ms"] / data["light"]["adaptive"]["p50_ms"], 3
    )
    data["heavy_adaptive_vs_fixed1_p95_speedup"] = round(
        data["heavy"]["fixed-1"]["p95_ms"] / data["heavy"]["adaptive"]["p95_ms"], 3
    )
    # The trade the adaptive policy erases: small buckets win light load,
    # large buckets win heavy load, adaptation gets both.
    assert data["light_adaptive_vs_fixed8_p50_speedup"] > 2.0, data
    assert data["heavy_adaptive_vs_fixed1_p95_speedup"] > 2.0, data
    return rows, data


def analytic_cross_check():
    """The gpusim queueing model's optimal bucket across arrival rates —
    the analytic mirror of the EWMA policy's direction (monotone in load)."""
    from repro.gpusim.device import tesla_v100
    from repro.gpusim.timeline import optimal_bucket, serving_latency
    from repro.gpusim.workloads import extract_layer_shapes
    from repro.models import build_model

    model = build_model("mobilenet", scheme="scc", width_mult=0.25,
                        rng=np.random.default_rng(2))
    shapes = extract_layer_shapes(model, INPUT)
    device = tesla_v100()
    buckets = (1, 2, 4, 8)
    rows = []
    for rate in (10.0, 100.0, 1000.0, 5000.0, 20000.0):
        best = optimal_bucket(shapes, buckets, device, rate, WINDOW)
        est = serving_latency(shapes, best, device, rate, WINDOW)
        rows.append({
            "arrival_rate": rate,
            "optimal_bucket": best,
            "queue_wait_ms": round(est.queue_wait * 1e3, 4),
            "exec_ms": round(est.exec * 1e3, 4),
            "latency_ms": round(est.latency * 1e3, 4),
            "stable": est.stable,
        })
    targets = [r["optimal_bucket"] for r in rows]
    assert targets == sorted(targets), rows   # monotone in load
    assert targets[0] == 1 and targets[-1] == max(buckets), rows
    return rows


# ---------------------------------------------------------------------------
# Section 2 — shed ablation: deadline-aware vs newest-first on one trace
# ---------------------------------------------------------------------------

SHED_EXEC = 2.0e-3      # flat batch cost at bucket 4 -> 2000 req/s service
SHED_BUDGET = 5.0e-3    # per-request latency budget
SHED_PENDING = 32


def measure_shedding():
    scale = 2.0 if full_mode() else 1.0
    duration = 0.25 * scale
    rng = np.random.default_rng(17)
    # 2x overload: 4000 req/s arrivals against 2000 req/s service.  Shared
    # trace — both policies see the identical overload.
    trace = poisson_trace(rng, 4000.0, duration, "m", budget=SHED_BUDGET)
    runs = {}
    for policy in ("deadline", "newest"):
        core = SchedCore(bucket_sizes=(4,), max_latency=1e-3,
                         max_pending=SHED_PENDING, adaptive_buckets=False,
                         shed_policy=policy)
        core.add_model("m", exec_estimate=SHED_EXEC)
        out = simulate(core, list(trace), lambda m, b: SHED_EXEC,
                       exec_estimate=SHED_EXEC)
        runs[policy] = {
            "policy": policy,
            "arrivals": len(trace),
            "completed": len(out["latencies"].get("m", [])),
            "ontime": out["ontime"].get("m", 0),
            "missed": out["misses"].get("m", 0),
            "shed_blown": out["shed"].get("m", 0),
            "rejected": out["rejected"].get("m", 0),
            "dropped_viable": out["dropped_viable"].get("m", 0),
        }
    deadline, newest = runs["deadline"], runs["newest"]
    # The acceptance property: on the same overload trace the deadline
    # policy sheds *only* blown budgets, newest-first tail-drops viable
    # requests (every rejected newcomer still had its full budget).
    assert deadline["dropped_viable"] == 0, runs
    assert deadline["shed_blown"] > 0, runs
    assert newest["dropped_viable"] > 0, runs
    assert deadline["ontime"] > newest["ontime"], runs
    goodput_ratio = deadline["ontime"] / max(newest["ontime"], 1)
    return list(runs.values()), {
        **runs,
        "deadline_vs_newest_goodput_ratio": round(goodput_ratio, 3),
        "deadline_ontime_fill": round(deadline["ontime"] / len(trace), 4),
        "newest_ontime_fill": round(newest["ontime"] / len(trace), 4),
    }


# ---------------------------------------------------------------------------
# Section 3 — fairness ablation: DRR vs FIFO under 95/5 traffic skew
# ---------------------------------------------------------------------------

HEAVY_EXEC = 1.0e-3     # heavy batch (bucket 4): 4000 req/s service
LIGHT_EXEC = 0.5e-3
HEAVY_PERIOD = 20e-3    # upstream-batched heavy traffic: one burst per period
HEAVY_BURST = 72        # 18 bucket-4 batches = 18 ms of work -> 0.9 util
DRR_P95_GATE = 1.5      # light p95 under skew vs solo, DRR must stay within


def _fair_exec(model, bucket):
    return HEAVY_EXEC if model == "heavy" else LIGHT_EXEC


def measure_fairness():
    scale = 2.0 if full_mode() else 1.0
    duration = 0.5 * scale
    # 95/5 skew at 0.9 lane utilisation.  The heavy model's traffic arrives
    # in periodic bursts (the upstream-batched pattern): every burst leaves
    # an ~18 ms standing backlog whose head predates any light request that
    # arrives inside the period — exactly the backlog FIFO's oldest-head
    # rule makes the light model queue behind, and DRR does not.
    light_trace = poisson_trace(np.random.default_rng(23), 190.0, duration,
                                "light")
    heavy_trace = [
        (k * HEAVY_PERIOD + i * 1e-6, "heavy", None)
        for k in range(int(duration / HEAVY_PERIOD))
        for i in range(HEAVY_BURST)
    ]
    mixed = sorted(light_trace + heavy_trace, key=lambda e: e[0])

    def run(fairness, trace, models):
        core = SchedCore(bucket_sizes=(4,), adaptive_buckets=False,
                         fairness=fairness)
        for name, window in models:
            core.add_model(name, max_latency=window)
        return simulate(core, list(trace), _fair_exec)

    solo = run("drr", light_trace, [("light", 5e-3)])
    models = [("light", 5e-3), ("heavy", 1e-3)]
    drr = run("drr", mixed, models)
    fifo = run("fifo", mixed, models)

    solo_p95 = _pct(solo["latencies"]["light"], 95)
    rows, data = [], {"light_requests": len(light_trace),
                      "heavy_requests": len(heavy_trace)}
    for policy, out in (("solo", solo), ("drr", drr), ("fifo", fifo)):
        light = out["latencies"]["light"]
        heavy = out["latencies"].get("heavy", [])
        rows.append({
            "policy": policy,
            "light_p50_ms": round(_pct(light, 50) * 1e3, 3),
            "light_p95_ms": round(_pct(light, 95) * 1e3, 3),
            "heavy_p95_ms": round(_pct(heavy, 95) * 1e3, 3),
            "light_vs_solo_p95_ratio": round(_pct(light, 95) / solo_p95, 3),
        })
        data[policy] = rows[-1]
    data["drr_light_p95_vs_solo_ratio"] = data["drr"]["light_vs_solo_p95_ratio"]
    data["fifo_light_p95_vs_solo_ratio"] = data["fifo"]["light_vs_solo_p95_ratio"]
    # Everything completes under both policies (no shedding here) — the
    # ablation isolates *ordering*, not capacity.
    assert len(drr["latencies"]["light"]) == len(light_trace), data
    assert len(fifo["latencies"]["light"]) == len(light_trace), data
    # The acceptance property: DRR bounds the light model's p95 inflation
    # under skew; FIFO queues it behind the heavy backlog and blows past.
    assert data["drr_light_p95_vs_solo_ratio"] <= DRR_P95_GATE, data
    assert data["fifo_light_p95_vs_solo_ratio"] > DRR_P95_GATE, data
    return rows, data


# ---------------------------------------------------------------------------
# Section 4 — measured asyncio gateway + bitwise parity with the sync server
# ---------------------------------------------------------------------------

def measure_gateway():
    from repro.models import build_model

    def model():
        return build_model("mobilenet", scheme="scc", width_mult=0.25,
                           rng=np.random.default_rng(2))

    n = 24 if full_mode() else 12
    rng = np.random.default_rng(31)
    images = [rng.standard_normal(INPUT).astype(np.float32) for _ in range(n)]

    server = Server(model(), input_shapes=[INPUT],
                    config=ServingPolicy(bucket_sizes=(4,), max_latency=1.0))
    ids = [server.submit(image) for image in images]
    server.flush()
    sync_out = [server.result(i).output for i in ids]

    async def run():
        gw = AsyncGateway(ServingPolicy(bucket_sizes=(4,), max_latency=0.005,
                                        shed_policy="deadline"))
        gw.register("m", model(), input_shapes=[INPUT])
        start = time.perf_counter()
        results = await asyncio.gather(
            *[gw.submit("m", image, budget=30.0) for image in images]
        )
        wall = time.perf_counter() - start
        metrics = gw.metrics()["m"]
        await gw.stop()
        return results, wall, metrics

    results, wall, metrics = asyncio.run(run())
    # The gateway's core invariant, asserted in the bench itself: padding
    # to the fixed bucket makes batch composition invisible bit-for-bit.
    for sync_row, result in zip(sync_out, results):
        np.testing.assert_array_equal(sync_row, result.output)
    return {
        "requests": n,
        "wall_ms": round(wall * 1e3, 2),
        "throughput_rps": round(n / wall, 1),
        "queue_wait_mean_ms": round(metrics.queue_wait_mean * 1e3, 3),
        "exec_mean_ms": round(metrics.exec_mean * 1e3, 3),
        "deadline_misses": metrics.deadline_misses,
        "bitwise_equal_sync": True,
    }


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def report_async_gateway():
    seed_all(13)
    bucket_rows, bucket_data = measure_bucketing()
    analytic_rows = analytic_cross_check()
    shed_rows, shed_data = measure_shedding()
    fair_rows, fair_data = measure_fairness()
    gateway = measure_gateway()

    table = format_table(
        ["Load", "bucket policy", "served", "p50 (ms)", "p95 (ms)", "req/s",
         "target"],
        [[r["scenario"], r["policy"], str(r["requests"]),
          f"{r['p50_ms']:.2f}", f"{r['p95_ms']:.2f}",
          f"{r['throughput_rps']:.0f}", str(r["final_bucket_target"])]
         for r in bucket_rows],
        title="Adaptive bucketing — light (60/s) vs heavy (3000/s) Poisson "
              "traffic, one execution lane, 10 ms flush window",
    )
    table += (
        "\nAdaptive follows the EWMA arrival rate to bucket "
        f"{bucket_data['light']['adaptive']['final_bucket_target']} under light "
        f"load ({bucket_data['light_adaptive_vs_fixed8_p50_speedup']:.1f}x the "
        "fixed-8 p50) and bucket "
        f"{bucket_data['heavy']['adaptive']['final_bucket_target']} under heavy "
        f"load ({bucket_data['heavy_adaptive_vs_fixed1_p95_speedup']:.1f}x the "
        "fixed-1 p95).\n\n"
    )
    table += format_table(
        ["Arrival rate (req/s)", "optimal bucket", "queue wait (ms)",
         "exec (ms)", "latency (ms)", "stable"],
        [[f"{r['arrival_rate']:.0f}", str(r["optimal_bucket"]),
          f"{r['queue_wait_ms']:.3f}", f"{r['exec_ms']:.3f}",
          f"{r['latency_ms']:.3f}", str(r["stable"])] for r in analytic_rows],
        title="gpusim analytic cross-check — optimal bucket vs arrival rate "
              "(mobilenet-scc on modelled V100)",
    )
    table += (
        "\nBoth the EWMA policy and the analytic queueing model move the "
        "bucket\nmonotonically with load: small for latency when idle, max "
        "for\nthroughput at saturation.\n\n"
    )
    table += format_table(
        ["Shed policy", "arrivals", "on-time", "missed", "shed blown",
         "rejected", "dropped viable"],
        [[r["policy"], str(r["arrivals"]), str(r["ontime"]), str(r["missed"]),
          str(r["shed_blown"]), str(r["rejected"]), str(r["dropped_viable"])]
         for r in shed_rows],
        title="Shed ablation — same 2x-overload trace (4000/s vs 2000/s "
              "service, 5 ms budgets), deadline-aware vs newest-first",
    )
    table += (
        "\nDeadline-aware shedding drops only requests whose budget is "
        "already\nblown (dropped viable = 0) and displaces them to admit "
        "viable\nnewcomers; newest-first tail-drops fresh requests with "
        "their whole\nbudget left, then serves stale ones that miss anyway "
        f"({shed_data['deadline_vs_newest_goodput_ratio']:.1f}x goodput "
        "gap).\n\n"
    )
    table += format_table(
        ["Fairness", "light p50 (ms)", "light p95 (ms)", "heavy p95 (ms)",
         "light p95 vs solo"],
        [[r["policy"], f"{r['light_p50_ms']:.2f}", f"{r['light_p95_ms']:.2f}",
          f"{r['heavy_p95_ms']:.2f}", f"{r['light_vs_solo_p95_ratio']:.2f}x"]
         for r in fair_rows],
        title="Fairness ablation — 95/5 heavy/light skew (bursty heavy "
              "traffic, 0.9 lane utilisation), DRR vs FIFO",
    )
    table += (
        "\nDRR keeps the light model's p95 within "
        f"{fair_data['drr_light_p95_vs_solo_ratio']:.2f}x of its solo p95 "
        f"(gate {DRR_P95_GATE}x); FIFO queues it behind the heavy backlog "
        f"at {fair_data['fifo_light_p95_vs_solo_ratio']:.2f}x.\n\n"
    )
    table += format_table(
        ["Requests", "wall (ms)", "req/s", "queue wait (ms)", "exec (ms)",
         "bitwise == sync"],
        [[str(gateway["requests"]), f"{gateway['wall_ms']:.1f}",
          f"{gateway['throughput_rps']:.0f}",
          f"{gateway['queue_wait_mean_ms']:.2f}",
          f"{gateway['exec_mean_ms']:.2f}",
          str(gateway["bitwise_equal_sync"])]],
        title="Measured asyncio gateway — real event loop, mobilenet-scc, "
              "fixed bucket 4",
    )
    table += (
        "\nThe measured section re-asserts the serving tier's core "
        "invariant:\nthe async gateway's outputs are bit-identical to the "
        "synchronous\nserver's at the same fixed bucket."
    )
    data = {
        "bucketing": bucket_data,
        "analytic": analytic_rows,
        "shedding": {k: v for k, v in shed_data.items()
                     if not isinstance(v, dict)},
        "shedding_runs": shed_rows,
        "fairness": fair_data,
        "gateway": gateway,
        "light_adaptive_vs_fixed8_p50_speedup":
            bucket_data["light_adaptive_vs_fixed8_p50_speedup"],
        "heavy_adaptive_vs_fixed1_p95_speedup":
            bucket_data["heavy_adaptive_vs_fixed1_p95_speedup"],
        "deadline_vs_newest_goodput_ratio":
            shed_data["deadline_vs_newest_goodput_ratio"],
        "drr_light_p95_vs_solo_ratio":
            fair_data["drr_light_p95_vs_solo_ratio"],
        "fifo_light_p95_vs_solo_ratio":
            fair_data["fifo_light_p95_vs_solo_ratio"],
    }
    return emit("async_gateway", table, data=data), data


def test_async_gateway_gates():
    _, data = report_async_gateway()
    # Adaptive bucketing beats the wrong fixed extreme at both load levels.
    assert data["light_adaptive_vs_fixed8_p50_speedup"] > 2.0, data
    assert data["heavy_adaptive_vs_fixed1_p95_speedup"] > 2.0, data
    # Deadline-aware shedding never drops viable work; newest-first does.
    deadline = next(r for r in data["shedding_runs"] if r["policy"] == "deadline")
    newest = next(r for r in data["shedding_runs"] if r["policy"] == "newest")
    assert deadline["dropped_viable"] == 0 and newest["dropped_viable"] > 0
    assert data["deadline_vs_newest_goodput_ratio"] > 1.5, data
    # DRR bounds the light model's p95 under skew; FIFO blows past the gate.
    assert data["drr_light_p95_vs_solo_ratio"] <= DRR_P95_GATE, data
    assert data["fifo_light_p95_vs_solo_ratio"] > DRR_P95_GATE, data
    # The measured gateway matched the sync server bit-for-bit.
    assert data["gateway"]["bitwise_equal_sync"] is True


if __name__ == "__main__":
    report_async_gateway()
