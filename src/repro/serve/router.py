"""Multi-model serving router over the shared execution-plan cache.

One process, many models, **one scheduling core**: :class:`Router` is the
multi-model front of :class:`~repro.serve.server.SyncTransport`, so
admission (per model, ``ServingPolicy.max_pending``), bucketing, deadline
shedding and the deficit-round-robin order between models are decided in
one :class:`~repro.serve.sched.SchedCore`.  All models share the
process-wide :data:`~repro.backend.workload.PLAN_CACHE` under their names
as cache *owner* tags (:func:`repro.backend.plan_owner`), which buys:

- **per-model cache accounting** — hit/miss/build/eviction counts per
  model, reconcilable against the global counters, exact even while other
  models, a trainer, or cache clears share the process;
- **traffic-weighted eviction** — the cache's LRU victim selection weights
  candidates by their owner's traffic, so a hot model's plans are not
  thrashed out by a cold model churning through the LRU tail.

Different models' batches run serially in the core's order, so the shared
cache's access order (and its eviction counts) is deterministic.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from repro.backend import PLAN_CACHE, plan_cache_stats
from repro.serve.policy import ServingPolicy
from repro.serve.server import (
    _CACHE_KEYS, ServingMetrics, SyncTransport, cache_delta, resolve_model,
)


class RouterHandle(NamedTuple):
    """Opaque ticket for one routed request: which model, which request id."""

    model: str
    request_id: int


@dataclass
class RouterMetrics:
    """One window's aggregate view across every registered model.

    ``per_model`` holds each model's :class:`ServingMetrics`;
    ``per_model_cache`` holds each model's plan-cache counter deltas over
    the same window (hits/misses/builds/evictions and the derived
    ``hit_rate``).  ``aggregate_hit_rate`` weights every model's cache
    traffic together — the number the multi-model benchmark gates on.
    """

    completed: int
    rejected: int                 # admission-control sheds across all models
    shed: int                     # shutdown sheds across all models
    throughput: float             # completed / wall-clock span of the window
    aggregate_hit_rate: float
    plan_builds: int
    cache_size: int
    cache_evictions: int          # global evictions over the window
    per_model: dict[str, ServingMetrics]
    per_model_cache: dict[str, dict]
    fused_layers: int = 0         # summed fused-epilogue layers across models
    shed_deadline: int = 0        # deadline-policy sheds across all models
    deadline_misses: int = 0      # completions past their deadline, all models
    failed: int = 0               # RequestFailed terminal failures, all models
    retries: int = 0              # transient-fault batch retries, all models
    unavailable: int = 0          # breaker-open sheds (ModelUnavailable)
    breaker_opens: int = 0        # breaker trips across all models
    # Per-model circuit-breaker snapshots (state, opens/closes, rejected,
    # error_rate, and the full timestamped transition list) for every model
    # whose breaker is enabled — the chaos soak's visibility surface.
    breakers: dict | None = None

    def as_dict(self) -> dict:
        out = dict(self.__dict__)
        out["per_model"] = {name: m.as_dict() for name, m in self.per_model.items()}
        return out


class Router(SyncTransport):
    """Route single-image requests to named models over one shared plan cache.

    Parameters
    ----------
    server_config:
        the :class:`~repro.serve.policy.ServingPolicy` every model is
        served under (``None`` = defaults).
    clock, sleep:
        time source and backoff sleep (injectable for tests).
    cache_owner_floor:
        when set, configures the shared plan cache's per-owner quota
        (``PlanCache.owner_floor``): every registered model keeps at least
        this many resident plans no matter how hard the other models churn
        the cache.  Applied process-wide (the cache is shared); ``None``
        leaves the cache's current setting untouched.

    Request keys are :class:`RouterHandle` s; ``result``/``status``/
    ``wait_result``/``was_shed``/``failure``/``poll``/``flush``/``start``/
    ``stop`` behave as documented on :class:`~repro.serve.server.SyncTransport`.
    """

    def __init__(
        self,
        server_config: ServingPolicy | None = None,
        clock: Callable[[], float] = time.perf_counter,
        cache_owner_floor: int | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if cache_owner_floor is not None:
            if cache_owner_floor < 0:
                raise ValueError(
                    f"cache_owner_floor must be >= 0, got {cache_owner_floor}"
                )
            PLAN_CACHE.owner_floor = cache_owner_floor
        super().__init__(server_config, clock, sleep)
        self.reset_metrics()

    def register(
        self,
        name: str,
        model,
        input_shapes: tuple | list = ((3, 32, 32),),
        **build_kwargs,
    ) -> None:
        """Add a model under ``name``.

        ``model`` is either a built ``repro.nn`` module or a registry model
        name (``"mobilenet"``, ``"resnet18"``, ...) resolved through
        :func:`repro.models.build_serving_model` with ``build_kwargs``.
        Plan pre-building for the configured buckets runs here, attributed
        to ``name`` in the shared cache.
        """
        if name in self._models:
            raise ValueError(f"model {name!r} already registered")
        # The model's cache window opens *after* its registration pre-builds,
        # so a model registered mid-window reports only served traffic.
        self._add(name, resolve_model(name, model, build_kwargs), input_shapes)

    def submit(
        self, model: str, image: np.ndarray, deadline: float | None = None
    ) -> RouterHandle:
        """Route one ``(C, H, W)`` image to ``model`` (see ``SyncTransport._submit``)."""
        return RouterHandle(model, self._submit(model, image, deadline))

    def _rid(self, handle: RouterHandle) -> int:
        self._require(handle.model)
        return handle.request_id

    # -- metrics ---------------------------------------------------------------

    def reset_metrics(self) -> None:
        """Fresh measurement window across all models and the shared cache."""
        super().reset_metrics()
        base = plan_cache_stats()
        self._cache_base = {key: base[key] for key in _CACHE_KEYS}

    def metrics(self) -> RouterMetrics:
        """Aggregate + per-model statistics since :meth:`reset_metrics`.

        Per-model hit rates come from the cache's per-owner counters (exact
        attribution); the aggregate rate and eviction count are global
        deltas, so they also absorb untagged traffic (e.g. a co-resident
        trainer) — matching what the shared cache actually experienced.
        A ``clear_plan_cache()`` in the window zeroes the cache's counters;
        attribution then restarts from the clear (never negative deltas).
        """
        with self._lock:
            per_model_cache = {name: runtime.cache_window()
                               for name, runtime in self._models.items()}
            per_model = {name: runtime.metrics(self.core.bucket_target(name),
                                               per_model_cache[name])
                         for name, runtime in self._models.items()}
            begun = [rt.started for rt in self._models.values() if rt.started is not None]
            done = [rt.finished for rt in self._models.values() if rt.finished is not None]
        cache = plan_cache_stats()
        window = cache_delta(cache, self._cache_base)
        # Window span: earliest submit to latest completion across models.
        elapsed = (max(done) - min(begun)) if begun and done else 0.0
        models = per_model.values()
        completed = sum(m.completed for m in models)
        return RouterMetrics(
            completed=completed,
            rejected=sum(m.rejected for m in models),
            shed=sum(m.shed for m in models),
            throughput=completed / elapsed if elapsed > 0 else 0.0,
            aggregate_hit_rate=window["hit_rate"],
            plan_builds=window["builds"],
            cache_size=cache["size"],
            cache_evictions=window["evictions"],
            per_model=per_model,
            per_model_cache=per_model_cache,
            fused_layers=sum(m.fused_layers for m in models),
            shed_deadline=sum(m.shed_deadline for m in models),
            deadline_misses=sum(m.deadline_misses for m in models),
            failed=sum(m.failed for m in models),
            retries=sum(m.retries for m in models),
            unavailable=sum(m.unavailable for m in models),
            breaker_opens=sum(m.breaker_opens for m in models),
            breakers=self.breaker_snapshots(),
        )
