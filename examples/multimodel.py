"""Multi-model serving: one router, many models, one shared plan cache.

Covers the multi-model API end to end:

1. register three differently-sized models on a ``serve.Router`` (one
   scheduling core queues all of them by model and shape; all share the
   process-wide plan cache, with per-model owner tags for exact cache
   accounting),
2. drive skewed synchronous traffic and read ``RouterMetrics``: per-model
   p50/p95/throughput plus exact per-model plan-cache hit rates,
3. constrain the shared cache below the combined working set and watch
   LRU eviction go live, each eviction charged to the model that built
   the evicted plan,
4. admission control: a router whose policy bounds each model's queue
   sheds with ``QueueFull`` instead of growing without bound,
5. threaded mode with concurrent multi-model clients.

Run:  python examples/multimodel.py
"""
import threading

import numpy as np

from repro.backend import PLAN_CACHE, clear_plan_cache, plan_cache_stats
from repro.serve import QueueFull, Router, ServingPolicy
from repro.utils import seed_all

seed_all(0)
INPUT = (3, 16, 16)

# 1. Three models behind one router.  Registering by registry name routes
#    through models.build_serving_model (seeded weights, eval mode); the
#    per-bucket plan pre-builds are attributed to each model's owner tag.
router = Router(server_config=ServingPolicy(bucket_sizes=(1, 2, 4, 8),
                                            max_latency=0.05))
router.register("hot", "mobilenet", input_shapes=[INPUT],
                scheme="scc", width_mult=0.25, seed=1)
router.register("warm", "mobilenet", input_shapes=[INPUT],
                scheme="pw", width_mult=0.5, seed=2)
router.register("cold", "resnet18", input_shapes=[INPUT],
                scheme="scc", width_mult=0.25, seed=3)
print("registered:", router.models())
print("plan cache after pre-build:", plan_cache_stats())

# 2. Skewed synchronous traffic: 70/20/10.
rng = np.random.default_rng(4)
names = ["hot"] * 7 + ["warm"] * 2 + ["cold"]
router.reset_metrics()
handles = [
    router.submit(names[rng.integers(len(names))],
                  rng.standard_normal(INPUT).astype(np.float32))
    for _ in range(120)
]
router.flush()
metrics = router.metrics()
print(f"\nsync window: {metrics.completed} requests, "
      f"aggregate hit rate {metrics.aggregate_hit_rate:.3f}")
for name, served in metrics.per_model.items():
    cache = metrics.per_model_cache[name]
    print(f"  {name:>5}: {served.completed:3d} served, "
          f"p50 {served.latency_p50 * 1e3:6.2f} ms, "
          f"p95 {served.latency_p95 * 1e3:6.2f} ms, "
          f"hit rate {cache['hit_rate']:.3f}, "
          f"{cache['size']} resident plans")

# 3. Shrink the shared cache below the serving working set.  Registration
#    builds many plans that serving never touches, so measure the working
#    set from a cold cache and one warm window first.  At half of it,
#    eviction is live: the least recently used plan goes, charged to the
#    model that built it, and the hot model, whose plans are touched most
#    often, keeps the highest hit rate.
def serve_window(count):
    router.reset_metrics()
    for _ in range(count):
        router.submit(names[rng.integers(len(names))],
                      rng.standard_normal(INPUT).astype(np.float32))
    router.flush()
    return router.metrics()


clear_plan_cache()
serve_window(48)
working_set = plan_cache_stats()["size"]
PLAN_CACHE.resize(working_set // 2)
metrics = serve_window(120)
print(f"\nconstrained cache ({PLAN_CACHE.maxsize}/{working_set} plans): "
      f"aggregate hit rate {metrics.aggregate_hit_rate:.3f}, "
      f"{metrics.cache_evictions} evictions")
for name, cache in metrics.per_model_cache.items():
    print(f"  {name:>5}: hit rate {cache['hit_rate']:.3f}, "
          f"evictions {cache['evictions']}")
PLAN_CACHE.resize(1024)

# 4. Admission control: a policy with a bounded queue sheds on overload.
bounded = Router(server_config=ServingPolicy(bucket_sizes=(8,), max_latency=60.0,
                                             max_pending=4))
bounded.register("bounded", "mobilenet", input_shapes=[INPUT],
                 scheme="scc", width_mult=0.25, seed=5)
rejected = 0
for _ in range(10):
    try:
        bounded.submit("bounded", rng.standard_normal(INPUT).astype(np.float32))
    except QueueFull:
        rejected += 1
bounded.flush()
print(f"\nadmission control: 10 submitted, {rejected} shed with QueueFull, "
      f"{bounded.metrics().per_model['bounded'].completed} completed")

# 5. Threaded mode: per-model client threads against the same router.
router.reset_metrics()
router.start()

def client(name: str, seed: int) -> None:
    gen = np.random.default_rng(seed)
    for _ in range(8):
        handle = router.submit(name, gen.standard_normal(INPUT).astype(np.float32))
        router.wait_result(handle, timeout=30.0)

clients = [threading.Thread(target=client, args=(name, 10 + i))
           for i, name in enumerate(("hot", "hot", "warm", "cold"))]
for thread in clients:
    thread.start()
for thread in clients:
    thread.join()
router.stop()

metrics = router.metrics()
print(f"\nthreaded window: {metrics.completed} requests from 4 clients "
      f"across 3 models, {metrics.throughput:.1f} req/s, "
      f"aggregate hit rate {metrics.aggregate_hit_rate:.3f}")
clear_plan_cache()
