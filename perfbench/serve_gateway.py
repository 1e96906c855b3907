"""``serve-gateway-dense``: bursty open-loop arrivals into an
``AsyncGateway`` serving the paper's origin (dense, groups=1) networks:
ResNet-18 width 0.25 at 32x32 and 16x16, and VGG-16 width 0.25 at 32x32
(VGG rejects 16x16).  Requests carry per-request budgets under
``shed_policy="deadline"``.

Bursts fill the largest buckets and exercise deadline shedding and DRR
fairness, so ``repro.serve.sched`` does most of its work here.  Dense
convolutions run in BLAS, which releases the interpreter lock, so batch
execution on the kernel pool overlaps the event loop.  The run is pinned
to one CPU (see run.py), so the pool has one worker and batches run one
at a time.  No depthwise, SCC or backward kernel runs.  One asyncio loop
sends on schedule and awaits every result.
"""
from __future__ import annotations

import asyncio
import time

import numpy as np

from perfbench import serving
from perfbench.common import BUCKETS
from perfbench.serving import POOL, Record

WIDTH = 0.25
MODELS = {   # name -> (registry model, served input shapes)
    "r18": ("resnet18", [(3, 32, 32), (3, 16, 16)]),
    "vgg16": ("vgg16", [(3, 32, 32)]),
}
KEYS = {     # request-mix key -> (model, input shape)
    "r18@32": ("r18", (3, 32, 32)),
    "r18@16": ("r18", (3, 16, 16)),
    "vgg16@32": ("vgg16", (3, 32, 32)),
}
MAX_LATENCY_S = 0.005


class GatewayTransport:
    """The ``AsyncGateway`` side of a serving run (see perfbench/serving.py).

    The gateway lives on one event loop owned by the transport; each phase
    runs the loop until every request of the phase has ended.
    """

    name = "gateway"
    MIX = {"r18@32": 0.4, "r18@16": 0.3, "vgg16@32": 0.3}
    MEAN_BURST = 6.0         # mean requests per burst
    SLO_S = 0.25             # each request's budget, from its due time
    SLACK = 24               # requests one burst may leave in flight (4x mean)
    REF_RATE = 40.0          # requests/s of the reference-rate phases
    PROBE_RATE = 320.0       # requests/s of the capacity probes (overload)

    def __init__(self, seed: int) -> None:
        from repro.data import make_dataset

        self.pools = {shape: make_dataset(POOL, num_classes=10, image_size=shape[1],
                                          channels=shape[0], seed=seed + 7 + shape[1]).images
                      for shape in {s for _, s in KEYS.values()}}
        self.loop = asyncio.new_event_loop()
        self.gateway = None
        self.models = {}

    def setup(self, seed: int) -> dict:
        return self.loop.run_until_complete(self._setup(seed))

    async def _setup(self, seed: int) -> dict:
        """Build both models, register them (plan pre-build) and push one
        warm-up request through every (model, shape)."""
        from repro.backend import clear_plan_cache
        from repro.models import build_serving_model
        from repro.serve import AsyncGateway, ServingPolicy

        clear_plan_cache()
        t0 = time.perf_counter()
        self.models = {name: build_serving_model(arch, seed=seed + k, width_mult=WIDTH)
                       for k, (name, (arch, _)) in enumerate(MODELS.items())}
        t1 = time.perf_counter()
        self.gateway = AsyncGateway(ServingPolicy(
            bucket_sizes=BUCKETS, max_latency=MAX_LATENCY_S, shed_policy="deadline",
        ))
        for name, model in self.models.items():
            self.gateway.register(name, model, input_shapes=MODELS[name][1])
        t2 = time.perf_counter()
        await asyncio.gather(*(self.gateway.submit(name, self.pools[shape][0])
                               for name, shape in KEYS.values()))
        t3 = time.perf_counter()
        return {"setup": t3 - t0, "build": t1 - t0, "plan": t2 - t1}

    def drive(self, phase, index: int) -> list[Record]:
        return self.loop.run_until_complete(self._drive(phase, index))

    async def _drive(self, phase, index: int) -> list[Record]:
        tasks = []
        for arrival in phase.arrivals:
            due = phase.start + arrival.offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(self._one(index, arrival, due)))
        return list(await asyncio.gather(*tasks))

    async def _one(self, index: int, arrival, due: float) -> Record:
        from repro.serve import ModelUnavailable, QueueFull, RequestFailed, RequestShed

        sent = time.perf_counter()
        record = Record(index, arrival.model, arrival.image, due, sent)
        name, shape = KEYS[arrival.model]
        try:
            result = await self.gateway.submit(name, self.pools[shape][arrival.image],
                                               budget=due + self.SLO_S - sent)
        except (QueueFull, RequestShed, RequestFailed, ModelUnavailable) as exc:
            # RequestShed covers DeadlineExceeded, the deadline policy's shed.
            record.outcome, record.done = type(exc).__name__, time.perf_counter()
            return record
        record.done = time.perf_counter()
        record.outcome = "ok"
        record.queue_wait = result.queue_wait
        record.bucket = result.bucket_size
        record.rid = (name, result.id)
        record.output = result.output
        return record

    def stop(self) -> None:
        self.loop.run_until_complete(self.gateway.stop())

    def totals(self) -> tuple[int, float, int]:
        metrics = self.gateway.metrics().values()
        return (sum(m.completed for m in metrics),
                sum(m.exec_seconds_total for m in metrics),
                sum(m.retries for m in metrics))

    def direct(self, key: str, image: int, bucket: int) -> np.ndarray:
        from repro.tensor import Tensor, no_grad

        name, shape = KEYS[key]
        batch = np.zeros((bucket, *shape), dtype=np.float32)
        batch[0] = self.pools[shape][image]
        with no_grad():
            return self.models[name](Tensor(batch)).data[0]


def run(seed: int, seconds: float, tracer=None):
    transport = GatewayTransport(seed)
    try:
        return serving.run(transport, seed, seconds, tracer)
    finally:
        transport.loop.close()
