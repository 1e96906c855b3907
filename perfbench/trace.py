"""Spans around the calls into each layer, installed from the benchmark.

The program under test carries no spans of its own yet, so the traced run
wraps the layers' public entry points from here:

- registry kernels, re-registered through ``register_kernel`` before any
  model is built (SCC strategies bind their kernels at construction; conv
  and pool kernels are looked up per call);
- the models' ``forward`` (MobileNet, ResNet, VGG), ``Trainer.train_step``,
  ``Tensor.backward``, ``SGD.step`` and ``ModelPlan`` construction;
- ``ModelExecutor.run``, ``SchedCore.submit``/``next_batch``,
  ``Router.submit`` and ``AsyncGateway.submit``.

A span is (id, parent, name, start, end, thread, attrs).  Parents come from
a per-thread stack, so a span's children are the spans its thread opened
inside it; ``AsyncGateway.submit`` interleaves on the event loop, so its
spans are recorded detached (no stack).  Spans stay in memory while the
workload runs and are written out as Chrome trace-event JSON at the end.
While ``enabled`` is false every wrapper calls straight through, so a run
can interleave traced and untraced stretches to measure the tracing cost.
"""
from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Span", "Tracer", "kernel_span_name"]


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    attrs: dict | None = None

    @property
    def dur(self) -> float:
        return self.end - self.start


def kernel_span_name(op: str, plan) -> str:
    """Layer-qualified span name of one registry kernel call.

    Convolutions split on ``groups``: grouped (depthwise, GPW) kernels loop
    over groups in Python while dense ones are one BLAS contraction, so the
    two move differently under any optimisation.
    """
    if op.startswith("conv2d"):
        base = plan.base if op == "conv2d_fused" else plan
        kind = "dense" if base.groups == 1 else "grouped"
        suffix = "_bwd" if op.endswith("_backward") else ""
        return f"backend.conv2d_{kind}{suffix}"
    if op == "scc_forward":
        return "backend.scc_fwd"
    if op == "scc_backward":
        return "backend.scc_bwd"
    if "pool" in op:
        return "backend.pool"
    return f"backend.{op}"


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._kernels: list[tuple[str, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> tuple[int, int | None, float]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def _exit(self, sid: int, parent: int | None, name: str, start: float,
              attrs: dict | None = None) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append(
            Span(sid, parent, name, start, end, threading.get_ident(), attrs)
        )

    def record_detached(self, name: str, start: float, end: float,
                        attrs: dict | None = None) -> None:
        self.spans.append(
            Span(next(self._ids), None, name, start, end,
                 threading.get_ident(), attrs)
        )

    def take(self) -> list[Span]:
        """Remove and return every span recorded so far."""
        spans, self.spans = self.spans, []
        return spans

    # -- wrappers --------------------------------------------------------------

    def _wrap_call(self, fn, name: str, attrs_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid, parent, start = tracer._enter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                attrs = attrs_of(args, kwargs, result) if attrs_of else None
                tracer._exit(sid, parent, name, start, attrs)

        return wrapped

    def _wrap_kernel(self, op: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(plan, *args, **kwargs):
            if not tracer.enabled:
                return fn(plan, *args, **kwargs)
            stats = kwargs.get("stats")
            if stats is not None:
                gemm0, bytes0 = stats.gemm_calls, stats.bytes_materialized
            sid, parent, start = tracer._enter()
            try:
                return fn(plan, *args, **kwargs)
            finally:
                attrs = None
                if stats is not None:
                    attrs = {
                        "gemm_calls": stats.gemm_calls - gemm0,
                        "bytes_materialized": stats.bytes_materialized - bytes0,
                    }
                tracer._exit(sid, parent, kernel_span_name(op, plan), start, attrs)

        return wrapped

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer entry point; call before any model is built."""
        from repro.backend import REGISTRY, ModelPlan, register_kernel
        from repro.models import VGG, MobileNet, ResNet
        from repro.serve import AsyncGateway, ModelExecutor, Router, SchedCore
        from repro.tensor import Tensor
        from repro.train import SGD, Trainer

        for op in REGISTRY.ops():
            backend = REGISTRY.resolve_name(op, "default")
            fn = REGISTRY.get(op, backend)
            self._kernels.append((op, backend, fn))
            register_kernel(op, backend)(self._wrap_kernel(op, fn))

        for cls in (MobileNet, ResNet, VGG):
            self._patch(cls, "forward", self._wrap_call(cls.forward, "models.forward"))
        self._patch(Trainer, "train_step",
                    self._wrap_call(Trainer.train_step, "train.step"))
        self._patch(Tensor, "backward",
                    self._wrap_call(Tensor.backward, "tensor.backward"))
        self._patch(SGD, "step", self._wrap_call(SGD.step, "train.optim"))
        self._patch(ModelPlan, "__init__",
                    self._wrap_call(ModelPlan.__init__, "backend.model_plan_build"))
        self._patch(ModelExecutor, "run",
                    self._wrap_call(ModelExecutor.run, "engine.run", _run_attrs))
        self._patch(SchedCore, "submit",
                    self._wrap_call(SchedCore.submit, "sched.submit"))
        self._patch(SchedCore, "next_batch",
                    self._wrap_call(SchedCore.next_batch, "sched.next_batch"))
        self._patch(Router, "submit",
                    self._wrap_call(Router.submit, "router.submit"))
        self._patch(AsyncGateway, "submit", self._wrap_async_submit(AsyncGateway.submit))

    def _wrap_async_submit(self, fn):
        tracer = self

        @functools.wraps(fn)
        async def submit(gateway, model, image, budget=None):
            if not tracer.enabled:
                return await fn(gateway, model, image, budget)
            start = time.perf_counter()
            try:
                return await fn(gateway, model, image, budget)
            finally:
                tracer.record_detached("gateway.submit", start,
                                       time.perf_counter(), {"model": model})

        return submit

    def uninstall(self) -> None:
        from repro.backend import register_kernel

        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        for op, backend, fn in self._kernels:
            register_kernel(op, backend)(fn)
        self._patches.clear()
        self._kernels.clear()

    # -- export ----------------------------------------------------------------

    @staticmethod
    def write_chrome(spans: list[Span], path: Path) -> None:
        """Chrome trace-event JSON (loads in Perfetto / chrome://tracing)."""
        t0 = min((s.start for s in spans), default=0.0)
        events = []
        for s in spans:
            args = {"id": s.id, "parent": s.parent}
            if s.attrs:
                args.update(s.attrs)
            events.append({
                "name": s.name, "cat": s.name.split(".")[0], "ph": "X",
                "ts": round((s.start - t0) * 1e6, 3),
                "dur": round(s.dur * 1e6, 3),
                "pid": 1, "tid": s.thread, "args": args,
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


def _run_attrs(args, kwargs, result) -> dict:
    """``ModelExecutor.run`` attributes: which requests rode in the batch
    and the engine's own timing of it."""
    executor, images, bucket = args[0], args[1], args[2]
    ids = kwargs.get("request_ids")
    attrs = {
        "model": executor.name,
        "bucket": bucket,
        "rows": len(images),
        "ids": list(ids) if ids is not None else [],
    }
    if result is not None:
        timing = result[1]
        attrs["exec_s"] = timing.exec_seconds
    return attrs


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.dur
    return {s.id: s.dur - child[s.id] for s in spans}
