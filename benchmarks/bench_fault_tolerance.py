"""Serving fault tolerance (beyond the paper's figures) — chaos goodput,
failure isolation, circuit breaking and backend degradation, measured on
deterministic virtual-clock runs of the real serving stack.

Every run drives the actual :class:`~repro.serve.Router` /
:class:`~repro.serve.ModelExecutor` with the deterministic fault plane
(:mod:`repro.faults`) installed: fire decisions are pure CRC-32 hashes of
``(seed, site, key, attempt)`` and every backoff sleep goes through an
injected virtual clock, so the same seed yields the identical fault
schedule on any machine — all sections are safe for the perf-trajectory
comparator to gate on (ratio-named metrics, no wall-clock noise).

Reported:

- **chaos goodput sweep** — one 100-request trace replayed at 0/2/5/10%
  transient kernel-fault rates plus two poisoned requests: non-poisoned
  goodput stays >= 99% at the 5% chaos point (asserted, the PR's acceptance
  gate) and every survivor is bitwise-identical to the fault-free run;
- **isolation ablation** — the same poisoned trace with bisect isolation on
  vs off: isolation saves every innocent co-batched request, no-isolation
  fails whole batches (the ``cobatched_survival_ratio`` is the win);
- **breaker ablation** — a model whose batches always fail, with and
  without a circuit breaker: the breaker cuts wasted kernel executions by
  ~an order of magnitude by shedding at the door while open;
- **degradation recovery** — a backend-scoped fault (the "broken
  accelerator" model): after ``degrade_after`` consecutive kernel faults
  the workload demotes one step down the chain, the faults stop, and the
  demoted outputs stay bitwise-identical (numpy <-> threaded).
"""
import numpy as np

from common import emit, full_mode
from repro.backend import REGISTRY
from repro.faults import FaultInjector, FaultSpec, use_faults
from repro.serve import (
    ModelExecutor,
    ModelUnavailable,
    RequestFailed,
    RequestStatus,
    RetryPolicy,
    Router,
    ServingPolicy,
)
from repro.utils import format_table, seed_all

INPUT = (3, 16, 16)
GOODPUT_GATE = 0.99       # non-poisoned goodput floor at the 5% chaos point
GATE_RATE = 0.05


def _model():
    from repro.models import build_model

    return build_model("mobilenet", scheme="scc", width_mult=0.25,
                       rng=np.random.default_rng(2))


def _images(n, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(INPUT).astype(np.float32) for _ in range(n)]


def _virtual_router(**server_knobs):
    t = [0.0]
    router = Router(
        server_config=ServingPolicy(bucket_sizes=(4,), max_latency=0.05,
                                    **server_knobs),
        clock=lambda: t[0],
        sleep=lambda dt: t.__setitem__(0, t[0] + dt),
    )
    return router, t


# ---------------------------------------------------------------------------
# Section 1 — chaos goodput sweep: transient faults + poison, bitwise gate
# ---------------------------------------------------------------------------

def measure_chaos_goodput():
    n = 200 if full_mode() else 100
    images = _images(n, seed=12)
    poison = [("m", 17), ("m", n - 3)]
    poisoned_ids = {rid for _, rid in poison}

    def run(injector):
        router, t = _virtual_router(
            retry=RetryPolicy(max_attempts=3, base_delay=0.001, seed=11),
        )
        router.register("m", _model(), input_shapes=[INPUT])
        handles = []
        ctx = use_faults(injector)
        with ctx:
            for image in images:
                t[0] += 0.001
                handles.append(router.submit("m", image))
                router.poll()
            t[0] += 1.0
            router.flush()
        return router, handles

    router, handles = run(None)
    reference = [router.result(h).output for h in handles]

    rows = []
    for rate in (0.0, 0.02, GATE_RATE, 0.10):
        inj = FaultInjector(
            [FaultSpec(site="kernel", rate=rate, models=("m",))],
            seed=20, poison_ids=poison,
        )
        router, handles = run(inj)
        metrics = router.metrics().per_model["m"]
        good = mismatches = failed_innocent = 0
        for handle, ref in zip(handles, reference):
            status = router.status(handle)
            if status == RequestStatus.FAILED:
                # Never silent: the typed failure is always retrievable.
                assert isinstance(router.failure(handle),
                                  RequestFailed)
                if handle.request_id not in poisoned_ids:
                    failed_innocent += 1
                continue
            assert status == RequestStatus.DONE, (rate, status)
            if handle.request_id in poisoned_ids:
                continue
            if np.array_equal(router.result(handle).output, ref):
                good += 1
            else:
                mismatches += 1
        goodput = good / (len(images) - len(poisoned_ids))
        rows.append({
            "fault_rate": rate,
            "requests": len(images),
            "goodput": round(goodput, 4),
            "failed_innocent": failed_innocent,
            "poisoned_failed": sum(
                1 for h in handles
                if h.request_id in poisoned_ids
                and router.status(h) == RequestStatus.FAILED
            ),
            "bitwise_mismatches": mismatches,
            "retries": metrics.retries,
            "isolated_batches": metrics.isolated_batches,
        })
    for row in rows:
        # Survivors are bitwise-identical to the fault-free run at every
        # chaos level: faults perturb when work runs, never what it computes.
        assert row["bitwise_mismatches"] == 0, rows
        assert row["poisoned_failed"] == len(poisoned_ids), rows
    gate_row = next(r for r in rows if r["fault_rate"] == GATE_RATE)
    assert gate_row["goodput"] >= GOODPUT_GATE, rows
    return rows, {
        "chaos_goodput_at_5pct_faults": gate_row["goodput"],
        "chaos_rows": rows,
    }


# ---------------------------------------------------------------------------
# Section 2 — isolation ablation: bisect-retry vs whole-batch failure
# ---------------------------------------------------------------------------

def measure_isolation():
    n = 32
    images = _images(n, seed=21)
    poison_ids = {5, 17, 26}          # three different bucket-4 batches
    innocents = n - len(poison_ids)

    def run(isolate):
        router, t = _virtual_router(isolate_failures=isolate)
        router.register("m", _model(), input_shapes=[INPUT])
        inj = FaultInjector(poison_ids=[("m", rid) for rid in poison_ids])
        with use_faults(inj):
            handles = [router.submit("m", image) for image in images]
            t[0] += 1.0
            router.flush()
        survived = sum(
            1 for h in handles
            if h.request_id not in poison_ids
            and router.status(h) == RequestStatus.DONE
        )
        return {
            "isolation": "on" if isolate else "off",
            "innocents_cobatched": len(poison_ids) * 3,
            "innocents_survived": survived,
            "innocents_total": innocents,
            "survival": round(survived / innocents, 4),
        }

    on, off = run(True), run(False)
    # Isolation saves every innocent; whole-batch failure takes down the
    # three co-batched neighbours of each poisoned request.
    assert on["innocents_survived"] == innocents, (on, off)
    assert off["innocents_survived"] == innocents - off["innocents_cobatched"]
    ratio = on["survival"] / off["survival"]
    return [on, off], {
        "isolation_cobatched_survival_ratio": round(ratio, 3),
        "isolation_runs": [on, off],
    }


# ---------------------------------------------------------------------------
# Section 3 — breaker ablation: wasted executions against a dead model
# ---------------------------------------------------------------------------

def measure_breaker():
    n = 40

    def run(with_breaker):
        knobs = dict(breaker_window=16, breaker_min_samples=4,
                     breaker_threshold=0.5, breaker_cooldown=10.0) \
            if with_breaker else {}
        router, t = _virtual_router(**knobs)
        router.register("dead", _model(), input_shapes=[INPUT])
        inj = FaultInjector([FaultSpec(site="kernel", rate=1.0,
                                       models=("dead",))])
        shed = 0
        with use_faults(inj):
            for image in _images(n, seed=31):
                t[0] += 0.001
                try:
                    router.submit("dead", image)
                except ModelUnavailable:
                    shed += 1
                router.poll()
            t[0] += 1.0
            router.flush()
        metrics = router.metrics().per_model["dead"]
        return {
            "breaker": "on" if with_breaker else "off",
            "submits": n,
            "executed_and_failed": metrics.failed,
            "shed_at_door": shed,
            "wasted_kernel_fires": inj.stats()["site_fires"]["kernel"],
            "breaker_opens": metrics.breaker_opens,
        }

    on, off = run(True), run(False)
    # Every submit against the dead model without a breaker burns a full
    # bisect-retry episode; the breaker pays for one batch, opens, and
    # sheds the rest at the door (ModelUnavailable — typed, never silent).
    assert on["breaker_opens"] >= 1 and off["breaker_opens"] == 0
    assert on["shed_at_door"] > 0 and off["shed_at_door"] == 0
    assert on["executed_and_failed"] + on["shed_at_door"] == n
    ratio = off["wasted_kernel_fires"] / max(on["wasted_kernel_fires"], 1)
    assert ratio > 2.0, (on, off)
    return [on, off], {
        "breaker_wasted_exec_ratio": round(ratio, 3),
        "breaker_runs": [on, off],
    }


# ---------------------------------------------------------------------------
# Section 4 — degradation: demote off a broken backend, recover bitwise
# ---------------------------------------------------------------------------

def measure_degradation():
    resolved = REGISTRY.resolve_name("conv2d", "default")
    # One step down to a backend that computes bit-identically (threaded is
    # numpy sharded on the pool); under REPRO_BACKEND=threaded the chain
    # naturally inverts.
    alt = "threaded" if resolved != "threaded" else "numpy"
    bitwise_pair = {resolved, alt} <= {"numpy", "threaded"}
    images = _images(4, seed=41)

    clean = ModelExecutor(_model(), input_shapes=[INPUT], bucket_sizes=(4,))
    clean_rows, _, _, _ = clean.run_resilient(images, 4)

    executor = ModelExecutor(_model(), input_shapes=[INPUT], bucket_sizes=(4,),
                             degrade_after=2, degrade_chain=(resolved, alt))
    inj = FaultInjector([FaultSpec(site="kernel", rate=1.0,
                                   backends=(resolved,))])
    t = [0.0]
    rows = []
    with use_faults(inj):
        for attempt in range(4):
            _, errors, _, _ = executor.run_resilient(
                images, 4, clock=lambda: t[0], isolate=False,
                sleep=lambda dt: t.__setitem__(0, t[0] + dt),
            )
            events = executor.degraded()
            rows.append({
                "batch": attempt,
                "backend": events[-1]["backend"] if events else resolved,
                "failed": len(errors),
                "demotions": len(events),
            })
    # Two consecutive kernel faults on the resolved backend, then demotion
    # makes the (backend-scoped) faults stop — observable recovery.
    assert [r["failed"] for r in rows] == [4, 4, 0, 0], rows
    assert rows[-1]["demotions"] == 1 and rows[-1]["backend"] == alt, rows
    bitwise = None
    if bitwise_pair:
        recovered, errors, _, _ = executor.run_resilient(images, 4)
        assert not errors
        for row, clean_row in zip(recovered, clean_rows):
            np.testing.assert_array_equal(row, clean_row)
        bitwise = True
    return rows, {
        "degraded_from": resolved,
        "degraded_to": alt,
        "batches_to_recover": 2,
        "degraded_bitwise_equal": bitwise,
    }


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def report_fault_tolerance():
    seed_all(7)
    chaos_rows, chaos_data = measure_chaos_goodput()
    iso_rows, iso_data = measure_isolation()
    brk_rows, brk_data = measure_breaker()
    deg_rows, deg_data = measure_degradation()

    table = format_table(
        ["Fault rate", "requests", "goodput", "innocent fails",
         "poison fails", "bitwise mism.", "retries", "isolations"],
        [[f"{r['fault_rate']:.0%}", str(r["requests"]), f"{r['goodput']:.4f}",
          str(r["failed_innocent"]), str(r["poisoned_failed"]),
          str(r["bitwise_mismatches"]), str(r["retries"]),
          str(r["isolated_batches"])] for r in chaos_rows],
        title="Chaos goodput sweep — one seeded trace, transient kernel "
              "faults + 2 poisoned requests, virtual clock",
    )
    table += (
        "\nNon-poisoned goodput at the 5% chaos point: "
        f"{chaos_data['chaos_goodput_at_5pct_faults']:.4f} (gate "
        f">= {GOODPUT_GATE}); every survivor bitwise-identical to the "
        "fault-free run, every failure typed (RequestFailed).\n\n"
    )
    table += format_table(
        ["Isolation", "co-batched innocents", "survived", "of", "survival"],
        [[r["isolation"], str(r["innocents_cobatched"]),
          str(r["innocents_survived"]), str(r["innocents_total"]),
          f"{r['survival']:.3f}"] for r in iso_rows],
        title="Isolation ablation — 3 poisoned requests across 8 bucket-4 "
              "batches, bisect-retry on vs off",
    )
    table += (
        "\nBisect isolation re-pads every sub-batch to the same bucket, so "
        "saving\nthe co-batched innocents costs no numerics: survival "
        f"{iso_data['isolation_cobatched_survival_ratio']:.2f}x the "
        "whole-batch-failure baseline.\n\n"
    )
    table += format_table(
        ["Breaker", "submits", "executed+failed", "shed at door",
         "wasted kernel fires", "opens"],
        [[r["breaker"], str(r["submits"]), str(r["executed_and_failed"]),
          str(r["shed_at_door"]), str(r["wasted_kernel_fires"]),
          str(r["breaker_opens"])] for r in brk_rows],
        title="Breaker ablation — 40 submits against an always-failing "
              "model, circuit breaker on vs off",
    )
    table += (
        "\nThe breaker pays for one failing batch, opens, and sheds the "
        "rest fast\n(ModelUnavailable): "
        f"{brk_data['breaker_wasted_exec_ratio']:.1f}x fewer wasted kernel "
        "executions than retrying a dead model forever.\n\n"
    )
    table += format_table(
        ["Batch", "backend", "failed", "demotions"],
        [[str(r["batch"]), r["backend"], str(r["failed"]),
          str(r["demotions"])] for r in deg_rows],
        title=f"Degradation recovery — kernel faults scoped to the "
              f"{deg_data['degraded_from']!r} backend, degrade_after=2",
    )
    table += (
        f"\nAfter 2 consecutive kernel faults the workload demotes "
        f"{deg_data['degraded_from']} -> {deg_data['degraded_to']} and the "
        "backend-scoped faults stop"
        + (", with bit-identical outputs on the demoted path."
           if deg_data["degraded_bitwise_equal"] else ".")
    )
    data = {
        "chaos": chaos_data["chaos_rows"],
        "isolation": iso_data["isolation_runs"],
        "breaker": brk_data["breaker_runs"],
        "degradation": deg_rows,
        "chaos_goodput_at_5pct_faults":
            chaos_data["chaos_goodput_at_5pct_faults"],
        "isolation_cobatched_survival_ratio":
            iso_data["isolation_cobatched_survival_ratio"],
        "breaker_wasted_exec_ratio": brk_data["breaker_wasted_exec_ratio"],
        "degradation_summary": deg_data,
    }
    return emit("fault_tolerance", table, data=data), data


def test_fault_tolerance_gates():
    _, data = report_fault_tolerance()
    # The PR's acceptance gate: >= 99% non-poisoned goodput under 5% chaos.
    assert data["chaos_goodput_at_5pct_faults"] >= GOODPUT_GATE, data
    # Isolation saves co-batched innocents; the breaker stops wasted work.
    assert data["isolation_cobatched_survival_ratio"] > 1.2, data
    assert data["breaker_wasted_exec_ratio"] > 2.0, data


if __name__ == "__main__":
    report_fault_tolerance()
