"""``train-mnet-scc``: a closed loop of ``Trainer.train_step`` on
MobileNet-V1 DW+SCC (cg=2, co=0.5, width 0.25), batch 32 of seeded
synthetic 32x32x3 data.

The paper's headline workload, and the only one that runs backward
kernels, autograd and the optimizer.  It never touches ``repro.serve``.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np

from perfbench import stats
from perfbench.common import Outcome, Result, backend_layers, ms
from perfbench.loadgen import host_probe_ms
from perfbench.trace import self_times

BATCH = 32
WIDTH = 0.25
DATASET = 256          # samples; the loop cycles through seeded reshuffles
SETUPS = 3             # set-ups per run; setup_s is their median
REPLAY_STEPS = 2       # leading steps replayed bitwise on a fresh model
STEP_SLO_S = 1.5       # a step slower than this misses the step SLO
PROBE_EVERY = 8        # steps between host probes


def _setup(seed: int):
    """Build the model, pre-build its training plan, wrap it in a trainer."""
    from repro.backend import ModelPlan, clear_plan_cache
    from repro.models import build_model
    from repro.train import TrainConfig, Trainer

    clear_plan_cache()
    t0 = time.perf_counter()
    model = build_model("mobilenet", scheme="scc", cg=2, co=0.5, width_mult=WIDTH,
                        rng=np.random.default_rng(seed))
    t1 = time.perf_counter()
    model.model_plan = ModelPlan(model, (3, 32, 32), batch_size=BATCH,
                                 include_backward=True)
    t2 = time.perf_counter()
    trainer = Trainer(model, TrainConfig(lr=0.05, momentum=0.9, weight_decay=5e-4))
    t3 = time.perf_counter()
    return trainer, {"setup": t3 - t0, "build": t1 - t0, "plan": t2 - t1}


def _batches(seed: int):
    from repro.data import make_dataset

    data = make_dataset(DATASET, num_classes=10, image_size=32, channels=3, seed=seed)
    rng = np.random.default_rng(seed + 1)
    while True:
        order = rng.permutation(DATASET)
        for k in range(DATASET // BATCH):
            idx = np.sort(order[k * BATCH:(k + 1) * BATCH])
            yield data.images[idx], data.labels[idx]


def run(seed: int, seconds: float, tracer=None) -> Result:
    from repro.backend import plan_cache_stats

    outcome = Outcome()
    probes = [host_probe_ms()]
    if tracer is not None:
        tracer.enabled = True
    setups = [_setup(seed) for _ in range(SETUPS)]
    if tracer is not None:
        tracer.enabled = False
        setup_spans = tracer.take()
    else:
        setup_spans = []
    trainer, last_setup = setups[-1]
    replayer = setups[-2][0]

    batches = _batches(seed)
    replay_batches, losses, snapshot = [], [], None
    steps = []                      # (seconds, traced)
    probe_s = 0.0
    cache0 = plan_cache_stats()
    window0 = time.perf_counter()
    k = 0
    while time.perf_counter() - window0 < seconds:
        images, labels = next(batches)
        traced = tracer is not None and k % 2 == 0
        if tracer is not None:
            tracer.enabled = traced
        t0 = time.perf_counter()
        loss, _ = trainer.train_step(images, labels)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        steps.append((dt, traced))
        losses.append(loss)
        outcome.attempted += 1
        if not math.isfinite(loss):
            outcome.failed += 1
            outcome.mismatches += 1
            outcome.notes.append(f"non-finite loss at step {k}")
        if k < REPLAY_STEPS:
            replay_batches.append((images, labels))
            if k == REPLAY_STEPS - 1:
                snapshot = [p.data.copy() for p in trainer.model.parameters()]
        k += 1
        if k % PROBE_EVERY == 0:
            p0 = time.perf_counter()
            probes.append(host_probe_ms())
            probe_s += time.perf_counter() - p0
    wall = time.perf_counter() - window0 - probe_s
    cache1 = plan_cache_stats()
    spans = tracer.take() if tracer is not None else []

    # Correctness: the leading steps replay bitwise on a fresh model.
    for j, (images, labels) in enumerate(replay_batches):
        loss, _ = replayer.train_step(images, labels)
        outcome.check(loss == losses[j], f"replayed loss of step {j}")
    if snapshot is not None:
        same = all(np.array_equal(a, p.data)
                   for a, p in zip(snapshot, replayer.model.parameters()))
        outcome.check(same, f"parameters after {REPLAY_STEPS} replayed steps")

    durations = [d for d, _ in steps]
    n = len(durations)
    tail = stats.tail(durations)
    e2e = {
        "setup_s": statistics.median([s["setup"] for _, s in setups]),
        "train_samples_per_s": BATCH * n / sum(durations),
        "latency_ms_p50": ms(statistics.median(durations)),
        "latency_ms_tail": ms(tail.value if tail else max(durations)),
        "slo_attain": sum(1 for d, loss in zip(durations, losses)
                          if d <= STEP_SLO_S and math.isfinite(loss)) / n,
        "capacity_rps": BATCH * n / wall,
    }
    lines = [
        f"steps {n} of batch {BATCH} in {wall:.1f} s; step p50 "
        f"{e2e['latency_ms_p50']:.1f} ms, tail "
        f"{tail.label() if tail else 'n/a (too few steps)'}",
    ]
    per_layer = {}
    if tracer is not None:
        per_layer = _per_layer(spans, steps, cache0, cache1, last_setup, probes)
    else:
        per_layer["host.probe_ms"] = statistics.median(probes)
    return Result(e2e, per_layer, outcome, lines, setup_spans + spans)


def _per_layer(spans, steps, cache0, cache1, last_setup, probes) -> dict:
    traced = [d for d, t in steps if t]
    untraced = [d for d, t in steps if not t]
    nt = max(1, len(traced))
    selfs = self_times(spans)
    out = backend_layers(spans, selfs, nt, cache0, cache1, last_setup)
    # Every span below a train.step is a layer's; their self times add up to
    # the part of the step the layers account for.  The step's own self time
    # (loss, zero_grad, bookkeeping) and the wrapper's cost are the rest.
    forward = backward = optim = bwd_self = layer_self = 0.0
    for s in spans:
        if s.name != "train.step":
            layer_self += selfs[s.id]
        if s.name == "models.forward":
            forward += s.dur
        elif s.name == "tensor.backward":
            backward += s.dur
            bwd_self += selfs[s.id]
        elif s.name == "train.optim":
            optim += s.dur
    durations = [d for d, _ in steps]
    tail = stats.tail(durations)
    out.update({
        "tensor.backward_self_ms": ms(bwd_self) / nt,
        "train.forward_ms": ms(forward) / nt,
        "train.backward_ms": ms(backward) / nt,
        "train.optim_ms": ms(optim) / nt,
        "train.unattributed_ms": ms(sum(traced) - layer_self) / nt,
        "train.step_ms_p50": ms(statistics.median(durations)),
        "train.step_ms_tail": ms(tail.value if tail else max(durations)),
        "host.probe_ms": statistics.median(probes),
        "trace.overhead_frac": (statistics.median(traced) / statistics.median(untraced) - 1.0)
        if traced and untraced else 0.0,
        "trace.accounted_frac": layer_self / sum(traced) if traced else 0.0,
    })
    return out
