"""Serving (beyond the paper's figures) — shape-bucketed request batching.

The ROADMAP's heavy-traffic scenario: a stream of single-image inference
requests.  *Naive* serving runs each request as its own batch-1 forward.
The :mod:`repro.serve` front-end instead coalesces requests into
shape-bucketed batches that execute on pre-built inference
:class:`~repro.backend.ModelPlan` entries, so the whole serving window runs
on plan-cache hits and every batch amortises per-layer Python/framework
overhead across its bucket.

Reported per bucket configuration: throughput vs the naive baseline (the
ratio is the headline — machine-robust for the perf-trajectory comparator),
p50/p95 latency, plan-cache hit rate and bucket fill.
"""
import numpy as np

from common import emit, full_mode
from repro.backend import plan_cache_stats
from repro.models import build_model
from repro.serve import Server, ServingPolicy
from repro.tensor import Tensor, no_grad
from repro.utils import Timer, format_table, seed_all

INPUT = (3, 16, 16)


def _model():
    seed_all(23)
    return build_model("mobilenet", scheme="scc", width_mult=0.25,
                       rng=np.random.default_rng(23)).eval()


def _requests(n, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(INPUT).astype(np.float32) for _ in range(n)]


def naive_throughput(model, images) -> float:
    """Per-request batch-1 inference (warm plans; the fairest baseline)."""
    with no_grad():
        model(Tensor(images[0][None]))  # warm the batch-1 plans
        timer = Timer()
        with timer:
            for image in images:
                model(Tensor(image[None]))
    return len(images) / timer.elapsed


def bucketed_run(model, images, bucket_sizes, max_latency=0.05):
    """Serve the same stream through the bucketing front-end."""
    server = Server(model, input_shapes=[INPUT],
                    config=ServingPolicy(bucket_sizes=bucket_sizes,
                                        max_latency=max_latency))
    server.reset_metrics()
    timer = Timer()
    with timer:
        for image in images:
            server.submit(image)
        server.flush()
    metrics = server.metrics()
    return len(images) / timer.elapsed, metrics


def report_serving_batching():
    num_requests = 256 if full_mode() else 96
    model = _model()
    images = _requests(num_requests)

    base_throughput = naive_throughput(model, images)
    rows = []
    for buckets in [(1,), (1, 2, 4), (1, 2, 4, 8), (1, 2, 4, 8, 16)]:
        throughput, metrics = bucketed_run(model, images, buckets)
        rows.append({
            "buckets": "/".join(map(str, buckets)),
            "throughput_rps": round(throughput, 1),
            "throughput_ratio": round(throughput / base_throughput, 3),
            "p50_ms": round(metrics.latency_p50 * 1e3, 3),
            "p95_ms": round(metrics.latency_p95 * 1e3, 3),
            "hit_rate": round(metrics.plan_cache_hit_rate, 4),
            "bucket_fill": round(metrics.mean_bucket_fill, 3),
        })

    table = format_table(
        ["Buckets", "req/s", "vs naive", "p50 (ms)", "p95 (ms)",
         "plan hit rate", "bucket fill"],
        [[r["buckets"], f"{r['throughput_rps']:.1f}", f"{r['throughput_ratio']:.2f}x",
          f"{r['p50_ms']:.2f}", f"{r['p95_ms']:.2f}", f"{r['hit_rate']:.3f}",
          f"{r['bucket_fill']:.2f}"] for r in rows],
        title="Serving — shape-bucketed batching on warm model plans "
              f"({num_requests} single-image requests)",
    )
    table += (
        f"\nNaive per-request baseline: {base_throughput:.1f} req/s (batch-1"
        "\nforwards, plans warm).  Bucketed serving pre-builds one inference"
        "\nModelPlan per (shape, bucket) so the whole window runs on cache hits;"
        "\nbigger buckets amortise per-layer dispatch across more requests."
    )
    data = {
        "naive_rps": base_throughput,
        "rows": rows,
        "cache": plan_cache_stats(),
    }
    return emit("serving_batching", table, data=data), rows


def test_bucketed_serving_beats_naive_with_warm_plans():
    _, rows = report_serving_batching()
    best = max(r["throughput_ratio"] for r in rows)
    assert best >= 2.0, rows
    # Every bucketed window after warmup serves >= 95% from the plan cache.
    assert all(r["hit_rate"] >= 0.95 for r in rows), rows


def test_serving_bucketed_8(benchmark):
    model = _model()
    images = _requests(32, seed=5)
    server = Server(model, input_shapes=[INPUT],
                    config=ServingPolicy(bucket_sizes=(1, 2, 4, 8)))

    def serve_stream():
        for image in images:
            server.submit(image)
        server.flush()

    serve_stream()
    benchmark(serve_stream)


def test_serving_naive_per_request(benchmark):
    model = _model()
    images = _requests(32, seed=5)

    def serve_naive():
        with no_grad():
            for image in images:
                model(Tensor(image[None]))

    serve_naive()
    benchmark(serve_naive)


if __name__ == "__main__":
    report_serving_batching()
