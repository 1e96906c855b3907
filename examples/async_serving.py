"""Async serving gateway: awaitable inference with latency budgets.

Covers the asyncio front of the serving transport end to end:

1. register two models on an ``AsyncGateway`` (same registry-name path as
   the sync ``Router``; each model gets a ``ModelExecutor``, and the
   transport's worker thread runs the batches one at a time),
2. await concurrent submissions and read the queue-wait vs execution
   latency split from ``ServingMetrics``,
3. per-request latency budgets: a blown budget resolves the awaiting
   coroutine with ``DeadlineExceeded`` instead of executing stale work,
4. adaptive bucketing: the EWMA arrival-rate tracker moves the target
   bucket with offered load,
5. deficit-round-robin fairness: a light model's latency survives a heavy
   model's backlog on the same execution lane,
6. clean shutdown: ``stop(drain=True)`` completes everything pending,
   ``drain=False`` sheds it loudly (``RequestShed``).

Run:  python examples/async_serving.py
"""
import asyncio

import numpy as np

from repro.serve import AsyncGateway, DeadlineExceeded, ServingPolicy
from repro.utils import seed_all

seed_all(0)
INPUT = (3, 16, 16)
rng = np.random.default_rng(7)


def image():
    return rng.standard_normal(INPUT).astype(np.float32)


async def main():
    # 1. Two models behind one gateway.  The heavy model's batches cost
    #    ~4x the light one's, priced into the DRR fairness accounting.
    gw = AsyncGateway(ServingPolicy(bucket_sizes=(1, 2, 4, 8),
                                    max_latency=0.02,
                                    adaptive_buckets=True,
                                    shed_policy="deadline"))
    gw.register("light", "mobilenet", input_shapes=[INPUT],
                scheme="scc", width_mult=0.25, seed=1, request_cost=1.0)
    gw.register("heavy", "resnet18", input_shapes=[INPUT],
                scheme="scc", width_mult=0.5, seed=2, request_cost=4.0)
    print("registered:", gw.core.models())

    # 2. Concurrent awaitable submissions; the scheduler coalesces them
    #    into padded buckets (outputs are bit-identical to riding alone).
    results = await asyncio.gather(
        *[gw.submit("light", image(), budget=30.0) for _ in range(8)]
    )
    print(f"\n8 concurrent submits: buckets {[r.bucket_size for r in results]}")
    metrics = gw.metrics()["light"]
    print(f"latency p95 {metrics.latency_p95 * 1e3:.2f} ms "
          f"= queue-wait {metrics.queue_wait_mean * 1e3:.2f} "
          f"+ exec {metrics.exec_mean * 1e3:.2f} ms (means)")

    # 3. A latency budget the queue cannot honour: the request is shed
    #    (never executed) and the awaiter sees DeadlineExceeded.
    try:
        await gw.submit("light", image(), budget=-1.0)
    except DeadlineExceeded as exc:
        print(f"\nblown budget shed at the scheduler: {exc}")
    print("shed_deadline:", gw.metrics()["light"].shed_deadline)

    # 4. Adaptive bucketing follows the offered load.
    for batch in (2, 16):
        await asyncio.gather(
            *[gw.submit("light", image(), budget=30.0) for _ in range(batch)]
        )
        print(f"after a burst of {batch:2d}: target bucket "
              f"{gw.core.bucket_target('light')}")

    # 5. Fairness: a heavy backlog and a light request on the same lane.
    #    DRR interleaves the light batch instead of draining heavy first.
    heavy = [asyncio.ensure_future(gw.submit("heavy", image(), budget=30.0))
             for _ in range(12)]
    light = await gw.submit("light", image(), budget=30.0)
    await asyncio.gather(*heavy)
    print(f"\nlight p95 under heavy backlog: "
          f"{gw.metrics()['light'].latency_p95 * 1e3:.2f} ms "
          f"(heavy completed: {gw.metrics()['heavy'].completed})")
    assert light.output.shape == (10,)

    # 6. Drain on shutdown (the async-with form drains automatically).
    await gw.stop(drain=True)
    total = sum(m.completed for m in gw.metrics().values())
    print(f"\nstopped; {total} requests completed, "
          f"{sum(m.shed_deadline for m in gw.metrics().values())} shed")


if __name__ == "__main__":
    asyncio.run(main())
