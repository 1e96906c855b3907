"""Serving (beyond the paper's figures) — multi-model routing on a shared,
capacity-constrained plan cache.

The ROADMAP's heavy-traffic scenario, scaled to many models per process:
three models of different sizes behind one ``repro.serve.Router``, traffic
skewed 70/20/10 (one hot model, two colder ones), and the process-wide
plan cache resized *below* the three models' combined plan working set so
eviction is live during the whole window — the regime the single-model
serving benchmark never enters.

Reported:

- per-model p50/p95 latency, throughput and exact (owner-attributed)
  plan-cache hit rate, plus the aggregate hit rate the acceptance gate
  cares about (>= 0.90 with the cache at ~60% of the working set);
- an eviction-policy ablation: the same stream with the cache's
  traffic-weighted victim selection reduced to pure LRU
  (``eviction_candidates=1``), isolating how much the weighting protects
  the hot model from the cold models' churn;
- a cross-model batch-overlap section: the measured wall time of draining
  the three models' batches on one worker vs on the shared pool, where
  the per-model execution chains may overlap (a model still serialises
  its own batches on its executor's ``exec_lock``).

The cache/hit-rate sections run under ``num_workers(1)``: the router's
drain is then strictly serial in its scheduling core's order, synchronous
and seeded, so every count (hits, misses, evictions, hit rates) stays
deterministic and machine-independent.  A wider pool would overlap the
models' batches and interleave their cache-access order, trading that
determinism away.
"""
import time

import numpy as np

from common import emit, full_mode
from repro.backend import (
    PLAN_CACHE,
    clear_plan_cache,
    num_workers,
    plan_cache_stats,
)
from repro.serve import Router, ServingPolicy
from repro.utils import format_table, seed_all

INPUT = (3, 16, 16)
# (router name, registry name, build kwargs): three sizes, one architecture
# family difference, so working sets overlap only trivially.
MODELS = (
    ("mnet-hot", "mobilenet", dict(scheme="scc", width_mult=0.25, seed=81)),
    ("mnet-warm", "mobilenet", dict(scheme="pw", width_mult=0.5, seed=82)),
    ("res-cold", "resnet18", dict(scheme="scc", width_mult=0.25, seed=83)),
)
TRAFFIC = {"mnet-hot": 0.70, "mnet-warm": 0.20, "res-cold": 0.10}
CAPACITY_FRACTION = 0.6    # gate point: cache capacity / runtime working set
CONTENDED_FRACTION = 0.4   # ablation point: hot model's plans reach the LRU tail

OVERLAP_WORKERS = 4        # pool size of the shared-pool drain


def _build_router() -> Router:
    seed_all(29)
    router = Router(server_config=ServingPolicy(bucket_sizes=(1, 2, 4, 8),
                                                max_latency=60.0))
    for name, registry_name, kwargs in MODELS:
        router.register(name, registry_name, input_shapes=[INPUT], **kwargs)
    return router


def _stream(num_requests: int, seed: int = 7):
    """Skewed arrival sequence: (model name, image) pairs."""
    rng = np.random.default_rng(seed)
    names = list(TRAFFIC)
    weights = np.array([TRAFFIC[n] for n in names])
    picks = rng.choice(len(names), size=num_requests, p=weights / weights.sum())
    return [
        (names[k], rng.standard_normal(INPUT).astype(np.float32)) for k in picks
    ]


def _serve(router: Router, stream) -> dict:
    router.reset_metrics()
    handles = [router.submit(name, image) for name, image in stream]
    router.flush()
    lost = sum(router.result(h) is None for h in handles)
    metrics = router.metrics()
    return {"metrics": metrics, "lost": lost}


def _measure(router: Router, stream, fraction: float, old_maxsize: int) -> dict:
    """One policy run: re-warm from a cold cache, constrain capacity, serve.

    The *runtime* working set is measured by clearing the cache after
    registration and replaying a warm stream — the registration-time build
    set is much larger (it includes plans only construction touches), so
    sizing against it would never constrain the serving path.
    """
    clear_plan_cache()
    warm = _serve(router, _stream(48, seed=3))
    assert warm["lost"] == 0
    working_set = plan_cache_stats()["size"]
    maxsize = max(1, int(working_set * fraction))
    PLAN_CACHE.resize(maxsize)
    outcome = _serve(router, stream)
    PLAN_CACHE.resize(old_maxsize)
    return {
        "working_set": working_set,
        "maxsize": maxsize,
        "metrics": outcome["metrics"],
        "lost": outcome["lost"],
    }


def _measure_overlap(router: Router) -> dict:
    """Serial vs shared-pool drain of three concurrent models' batches.

    Arrivals come in rounds of ``per_round`` per model (below the largest
    bucket, so nothing executes inline at submit time); each ``flush`` then
    drains one batch per model.  Both drains are measured wall times
    (``env.host_cpus`` says whether the pooled one can move on this host).
    """
    per_round = 4
    rounds = 16 if full_mode() else 10
    rng = np.random.default_rng(23)
    names = list(router.models())
    images = [
        [rng.standard_normal(INPUT).astype(np.float32) for _ in range(per_round)]
        for _ in range(rounds)
    ]
    def drive(workers: int) -> float:
        wall = 0.0
        with num_workers(workers):
            for r in range(rounds):
                for name in names:
                    for image in images[r]:
                        router.submit(name, image)
                start = time.perf_counter()
                router.flush()
                wall += time.perf_counter() - start
        return wall

    drive(1)  # warm every (shape, bucket) plan + buffers
    serial_wall = drive(1)
    overlap_wall = drive(OVERLAP_WORKERS)
    return {
        "rounds": rounds,
        "requests_per_model": per_round * rounds,
        "workers": OVERLAP_WORKERS,
        "serial_wall_ms": round(serial_wall * 1e3, 3),
        "overlap_wall_ms": round(overlap_wall * 1e3, 3),
        "overlap_speedup_measured": round(serial_wall / overlap_wall, 3),
    }


def report_multimodel_serving():
    num_requests = 600 if full_mode() else 240
    old_maxsize = PLAN_CACHE.maxsize
    old_candidates = PLAN_CACHE.eviction_candidates
    try:
        clear_plan_cache()
        router = _build_router()
        stream = _stream(num_requests)

        with num_workers(1):   # serial drain: deterministic cache counters
            gate = _measure(router, stream, CAPACITY_FRACTION, old_maxsize)
            metrics = gate["metrics"]
            working_set, maxsize = gate["working_set"], gate["maxsize"]

            # Eviction-policy ablation at tighter capacity, where the hot
            # model's plans do drift to the LRU tail between its batches:
            # the same stream under traffic-weighted vs pure-LRU victims.
            contended = _measure(router, stream, CONTENDED_FRACTION, old_maxsize)
            PLAN_CACHE.eviction_candidates = 1
            contended_lru = _measure(router, stream, CONTENDED_FRACTION,
                                     old_maxsize)
            PLAN_CACHE.eviction_candidates = old_candidates

        # Cross-model batch overlap (after the count-gated sections: its
        # extra traffic must not perturb their deterministic counters).
        overlap = _measure_overlap(router)

        counts = {name: sum(1 for n, _ in stream if n == name) for name in TRAFFIC}
        rows = []
        for name in router.models():
            served = metrics.per_model[name]
            cache = metrics.per_model_cache[name]
            rows.append({
                "model": name,
                "share": round(counts[name] / num_requests, 3),
                "completed": served.completed,
                "throughput_rps": round(served.throughput, 1),
                "p50_ms": round(served.latency_p50 * 1e3, 3),
                "p95_ms": round(served.latency_p95 * 1e3, 3),
                "hit_rate": round(cache["hit_rate"], 4),
                "evictions": cache["evictions"],
            })
        ablation_rows = []
        for policy, run in (("weighted", contended), ("pure-lru", contended_lru)):
            m = run["metrics"]
            ablation_rows.append({
                "policy": policy,
                "capacity": run["maxsize"],
                "aggregate_hit_rate": round(m.aggregate_hit_rate, 4),
                "hot_hit_rate": round(m.per_model_cache["mnet-hot"]["hit_rate"], 4),
                "evictions": m.cache_evictions,
            })

        table = format_table(
            ["Model", "traffic", "served", "req/s", "p50 (ms)", "p95 (ms)",
             "hit rate", "evictions"],
            [[r["model"], f"{r['share']:.0%}", str(r["completed"]),
              f"{r['throughput_rps']:.1f}", f"{r['p50_ms']:.2f}",
              f"{r['p95_ms']:.2f}", f"{r['hit_rate']:.3f}",
              str(r["evictions"])] for r in rows],
            title="Multi-model serving — 3 models, 70/20/10 traffic, shared "
                  f"plan cache at {CAPACITY_FRACTION:.0%} of the runtime "
                  f"working set ({num_requests} requests)",
        )
        table += (
            f"\nRuntime working set {working_set} plans, cache capacity "
            f"{maxsize}: aggregate hit rate {metrics.aggregate_hit_rate:.3f}, "
            f"{metrics.cache_evictions} evictions, 0 lost requests.\n\n"
        )
        table += format_table(
            ["Eviction policy", "capacity", "aggregate hit rate",
             "hot-model hit rate", "evictions"],
            [[r["policy"], str(r["capacity"]), f"{r['aggregate_hit_rate']:.3f}",
              f"{r['hot_hit_rate']:.3f}", str(r["evictions"])]
             for r in ablation_rows],
            title=f"Eviction ablation at {CONTENDED_FRACTION:.0%} capacity "
                  "(hot plans reach the LRU tail)",
        )
        table += (
            "\nTraffic-weighted victim selection shields the hot model once"
            "\ncapacity is tight enough that its plans age to the LRU tail"
            "\nbetween batches; at the gate capacity both policies coast"
            "\nbecause re-touches keep hot plans off the tail entirely.\n\n"
        )
        table += format_table(
            ["Drain", "wall (ms)", "speedup"],
            [["serial (one worker)", f"{overlap['serial_wall_ms']:.1f}",
              "1.00"],
             [f"shared pool ({overlap['workers']} workers)",
              f"{overlap['overlap_wall_ms']:.1f}",
              f"{overlap['overlap_speedup_measured']:.2f}"]],
            title="Cross-model batch overlap — 3 models' chains, "
                  f"{overlap['requests_per_model']} requests/model in "
                  f"{overlap['rounds']} rounds",
        )
        table += (
            "\nBoth drains are measured wall times; the pooled one only moves"
            "\nwith enough unloaded host cores (see env.host_cpus in the JSON)."
        )
        data = {
            "num_requests": num_requests,
            "working_set": working_set,
            "cache_maxsize": maxsize,
            "capacity_fraction": CAPACITY_FRACTION,
            "aggregate_hit_rate": round(metrics.aggregate_hit_rate, 4),
            "evictions": metrics.cache_evictions,
            "lost_requests": gate["lost"] + contended["lost"] + contended_lru["lost"],
            "rows": rows,
            "eviction_ablation": ablation_rows,
            "overlap": overlap,
            "cache": plan_cache_stats(),
        }
        return emit("multimodel_serving", table, data=data), data
    finally:
        PLAN_CACHE.eviction_candidates = old_candidates
        PLAN_CACHE.resize(old_maxsize)
        clear_plan_cache()


def test_multimodel_aggregate_hit_rate_gate():
    _, data = report_multimodel_serving()
    # The acceptance gate: skewed 3-model traffic on a cache sized below
    # the runtime working set still serves >= 90% from the plan cache,
    # and no request is lost.
    assert data["cache_maxsize"] < data["working_set"]
    assert data["aggregate_hit_rate"] >= 0.90, data
    assert data["lost_requests"] == 0
    # The hot model is protected: its hit rate stays above the aggregate.
    hot = next(r for r in data["rows"] if r["model"] == "mnet-hot")
    assert hot["hit_rate"] >= data["aggregate_hit_rate"], data["rows"]
    # Under contention the weighted policy keeps the hot model warmer than
    # pure LRU serving the identical stream.
    weighted, pure_lru = data["eviction_ablation"]
    assert weighted["hot_hit_rate"] > pure_lru["hot_hit_rate"], data


if __name__ == "__main__":
    report_multimodel_serving()
