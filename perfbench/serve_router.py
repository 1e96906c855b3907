"""``serve-router-scc``: open-loop Poisson arrivals of single 32x32 images
into a started ``Router`` serving three factorized models in a 70/20/10
mix (MobileNet-SCC, ResNet-18-SCC, MobileNet-GPW, all width 0.25).

The forward-only DSXplore inference path (paper Table 5): fused epilogues,
depthwise plus SCC forward kernels, small latency-bound batches on warm
plans, and the ``Server``/``Router`` bookkeeping.  One sender thread sends
on schedule; the main thread collects every result as soon as it can.
"""
from __future__ import annotations

import queue
import threading
import time

import numpy as np

from perfbench import serving
from perfbench.common import BUCKETS
from perfbench.serving import POOL, Record

WIDTH = 0.25
MODELS = {   # name -> (registry model, build kwargs)
    "mnet-scc": ("mobilenet", {"scheme": "scc", "cg": 2, "co": 0.5}),
    "r18-scc": ("resnet18", {"scheme": "scc", "cg": 2, "co": 0.5}),
    "mnet-gpw": ("mobilenet", {"scheme": "gpw", "cg": 2}),
}
SHAPE = (3, 32, 32)
MAX_LATENCY_S = 0.01     # how long a request may wait for batch-mates
RESULT_TIMEOUT_S = 30.0


class RouterTransport:
    """The ``Router`` side of a serving run (see perfbench/serving.py)."""

    name = "router"
    MIX = {"mnet-scc": 0.7, "r18-scc": 0.2, "mnet-gpw": 0.1}
    MEAN_BURST = None        # Poisson arrivals
    SLO_S = 1.0              # per-request latency SLO, from the due time
    SLACK = BUCKETS[-1]      # one bucket being formed
    REF_RATE = 4.0           # requests/s of the reference-rate phases
    PROBE_RATE = 90.0        # requests/s of the capacity probes (overload)

    def __init__(self, seed: int) -> None:
        from repro.data import make_dataset

        self.images = make_dataset(POOL, num_classes=10, image_size=SHAPE[1],
                                   channels=SHAPE[0], seed=seed + 7).images
        self.router = None
        self.models = {}

    def setup(self, seed: int) -> dict:
        """Build the three models, register them (plan pre-build), start the
        router and push one warm-up request through each model."""
        from repro.backend import clear_plan_cache
        from repro.models import build_serving_model
        from repro.serve import Router, ServingPolicy

        clear_plan_cache()
        t0 = time.perf_counter()
        self.models = {name: build_serving_model(arch, seed=seed + k, width_mult=WIDTH, **kw)
                       for k, (name, (arch, kw)) in enumerate(MODELS.items())}
        t1 = time.perf_counter()
        self.router = Router(server_config=ServingPolicy(bucket_sizes=BUCKETS,
                                                         max_latency=MAX_LATENCY_S))
        for name, model in self.models.items():
            self.router.register(name, model, input_shapes=[SHAPE])
        t2 = time.perf_counter()
        self.router.start()
        warm = np.zeros(SHAPE, dtype=np.float32)
        for handle in [self.router.submit(name, warm) for name in self.models]:
            self.router.wait_result(handle, timeout=RESULT_TIMEOUT_S)
        self.router.reset_metrics()
        t3 = time.perf_counter()
        return {"setup": t3 - t0, "build": t1 - t0, "plan": t2 - t1}

    def drive(self, phase, index: int) -> list[Record]:
        """One sender thread sends on schedule; this thread collects every
        result as soon as the sender hands over its handle."""
        inbox: queue.Queue = queue.Queue()
        sender = threading.Thread(target=self._send, args=(phase, index, inbox))
        sender.start()
        records = []
        while (item := inbox.get()) is not None:
            record, handle = item
            records.append(record if handle is None else self._collect(record, handle))
        sender.join()
        return records

    def _send(self, phase, index: int, out: queue.Queue) -> None:
        from repro.serve import ModelUnavailable, QueueFull

        try:
            for a in phase.arrivals:
                due = phase.start + a.offset
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                record = Record(index, a.model, a.image, due, sent)
                try:
                    handle = self.router.submit(a.model, self.images[a.image],
                                                deadline=due + self.SLO_S)
                except (QueueFull, ModelUnavailable) as exc:
                    record.outcome, record.done = type(exc).__name__, sent
                    handle = None
                out.put((record, handle))
        finally:
            out.put(None)    # the collector stops even if a submit raised

    def _collect(self, record: Record, handle) -> Record:
        from repro.serve import RequestFailed, RequestShed, ResultTimeout

        try:
            result = self.router.wait_result(handle, timeout=RESULT_TIMEOUT_S)
        except (RequestShed, RequestFailed, ResultTimeout) as exc:
            record.outcome, record.done = type(exc).__name__, time.perf_counter()
            return record
        record.outcome = "ok"
        record.done = record.sent + result.latency
        record.queue_wait = result.queue_wait
        record.bucket = result.bucket_size
        record.rid = (handle.model, handle.request_id)
        record.output = result.output
        return record

    def stop(self) -> None:
        self.router.stop()

    def totals(self) -> tuple[int, float, int]:
        metrics = self.router.metrics()
        return (sum(m.completed for m in metrics.per_model.values()),
                sum(m.exec_seconds_total for m in metrics.per_model.values()),
                metrics.retries)

    def direct(self, key: str, image: int, bucket: int) -> np.ndarray:
        from repro.tensor import Tensor, no_grad

        batch = np.zeros((bucket, *SHAPE), dtype=np.float32)
        batch[0] = self.images[image]
        with no_grad():
            return self.models[key](Tensor(batch)).data[0]


def run(seed: int, seconds: float, tracer=None):
    return serving.run(RouterTransport(seed), seed, seconds, tracer)
