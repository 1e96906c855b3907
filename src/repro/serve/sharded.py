"""Sharded multi-process serving: consistent-hash models across N routers.

The single-process :class:`~repro.serve.router.Router` tops out where numpy
stops releasing the GIL — pure-python models, scheduling overhead and
plan-cache bookkeeping all serialise on one interpreter.
:class:`ShardedRouter` is the tier above it: **N worker processes, each
hosting a full in-process Router** (its own plan cache, its own fault
plane, its own worker pool), with models assigned to shards by a
consistent-hash ring and requests proxied over pipes.

Design points:

- **consistent hashing** (:class:`HashRing`) — model names map to shards
  through CRC-32 virtual-node points, so growing the ring from N to N+1
  shards remaps only ~1/(N+1) of the models (the classic property), and
  the assignment is a pure function of (name, shard count, replicas):
  every front-end computes the same ring with no coordination.
- **determinism** — models are registered by *registry name* + build
  kwargs (e.g. ``seed``), so every shard builds bit-identical weights from
  the model registry rather than pickling arrays across the boundary; a
  request's output is therefore bitwise-identical to the same model served
  by an in-process Router (the tier-1 suite asserts exactly this).
- **per-process fault planes** — a fault injector installed in the parent
  is inherited by fork and re-derived per shard
  (:meth:`repro.faults.FaultInjector.for_worker`), so chaos stays
  seed-deterministic per process instead of replaying one sequence
  everywhere.
- **drive model** — synchronous only (``submit`` / ``flush`` / ``poll`` /
  ``result``), mirroring the Router surface; ``flush`` and ``poll``
  broadcast to every shard *before* collecting any reply, so shard drains
  genuinely overlap across processes — this is the GIL escape the
  ``bench_sharded_router`` gate measures.

Worker processes pin their in-process parallelism to one worker and the
``thread`` executor tier: the process boundary *is* the fan-out, and a
shard nesting another pool (or another process tier) would oversubscribe
the host quadratically.
"""
from __future__ import annotations

import bisect
import multiprocessing
import threading
import zlib
from typing import Any, Callable, Sequence

import numpy as np

from repro.serve.router import Router, RouterHandle
from repro.serve.policy import ServingPolicy

__all__ = ["HashRing", "ShardedRouter"]


class HashRing:
    """Deterministic consistent-hash ring over ``shards`` buckets.

    ``replicas`` virtual nodes per shard smooth the assignment (CRC-32 of
    ``"shard:<i>#<r>"`` places the points); :meth:`owner` walks clockwise
    from the key's hash to the first point.  Pure and stateless after
    construction — no coordination needed between processes that build the
    same ring.
    """

    def __init__(self, shards: int, replicas: int = 64) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.shards = shards
        self.replicas = replicas
        points: list[tuple[int, int]] = []
        for shard in range(shards):
            for replica in range(replicas):
                point = zlib.crc32(f"shard:{shard}#{replica}".encode())
                points.append((point, shard))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]

    def owner(self, key: str) -> int:
        """The shard owning ``key`` (clockwise-next virtual node)."""
        point = zlib.crc32(str(key).encode())
        index = bisect.bisect_right(self._points, point) % len(self._points)
        return self._owners[index]


# ---------------------------------------------------------------------------
# Shard worker process
# ---------------------------------------------------------------------------

# The Router methods a shard proxies (the pipe protocol).
_COMMANDS = frozenset({
    "register", "submit", "flush", "poll", "result", "wait_result", "status",
    "was_shed", "metrics", "reset_metrics", "stop",
})


def _shard_main(conn, shard_index: int, config: ServingPolicy | None) -> None:
    """One shard process: a full Router driven by a pipe command loop."""
    # The forked pool/executor globals have no threads here; the shard
    # processes are the parallelism (see the module docstring).
    from repro.backend.parallel import set_executor, set_num_workers
    from repro.faults import active_faults, install_faults

    set_executor("thread")
    set_num_workers(1)
    inherited = active_faults()
    if inherited is not None:
        install_faults(inherited.for_worker(shard_index))

    router = Router(server_config=config)
    running = True
    while running:
        try:
            cmd, args, kwargs = conn.recv()
        except EOFError:
            break
        try:
            if cmd not in _COMMANDS:  # pragma: no cover - protocol mismatch guard
                raise ValueError(f"unknown shard command {cmd!r}")
            value = getattr(router, cmd)(*args, **kwargs)
            if cmd == "stop":
                # Drained before exiting: hand back the final accounting,
                # so nothing submitted is left unaccounted.
                running, value = False, router.metrics()
            reply: tuple[str, Any] = ("ok", value)
        except BaseException as exc:  # noqa: BLE001 - proxied to the parent
            reply = ("err", exc)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):  # pragma: no cover - parent died
            break
    conn.close()


class ShardedRouter:
    """Consistent-hash models across N single-router worker processes.

    Mirrors the synchronous :class:`~repro.serve.router.Router` surface
    (``register`` / ``submit`` / ``flush`` / ``poll`` / ``result`` /
    ``wait_result`` / ``metrics`` / ``stop``) while fanning models out
    across real processes.  Models must be *registry names* (resolved via
    :func:`repro.models.build_serving_model` inside the owning shard) so
    weights are rebuilt deterministically per process instead of shipping
    arrays; pass ``seed=...`` in ``build_kwargs`` to pin them.

    Every shard's Router serves under ``server_config`` (inherited by the
    fork), and a fault injector installed before construction is inherited
    and re-seeded per shard.  Use as a context manager to guarantee worker
    teardown.
    """

    def __init__(
        self,
        shards: int = 2,
        server_config: ServingPolicy | None = None,
        replicas: int = 64,
    ) -> None:
        self.ring = HashRing(shards, replicas)
        self.shards = shards
        self._models: dict[str, int] = {}
        self._lock = threading.Lock()
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-posix platforms
            ctx = multiprocessing.get_context()
        self._conns = []
        self._procs = []
        for index in range(shards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_main,
                args=(child_conn, index, server_config),
                daemon=True,
                name=f"repro-shard-{index}",
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
        self._stopped = False
        self._final: list | None = None   # shards' last metrics, after stop()

    # -- RPC plumbing ----------------------------------------------------------

    def _call(self, shard: int, cmd: str, *args: Any, **kwargs: Any) -> Any:
        with self._lock:
            conn = self._conns[shard]
            conn.send((cmd, args, kwargs))
            status, value = conn.recv()
        if status == "err":
            raise value
        return value

    def _broadcast(self, cmd: str, *args: Any) -> list[Any]:
        """Send to every shard, then collect — shard work overlaps for real."""
        with self._lock:
            for conn in self._conns:
                conn.send((cmd, args, {}))
            replies = [conn.recv() for conn in self._conns]
        results = []
        for status, value in replies:
            if status == "err":
                raise value
            results.append(value)
        return results

    # -- registration ----------------------------------------------------------

    def register(
        self,
        name: str,
        model: str,
        input_shapes: tuple | list = ((3, 32, 32),),
        **build_kwargs: Any,
    ) -> int:
        """Register registry model ``model`` under ``name``; returns its shard."""
        if not isinstance(model, str):
            raise TypeError(
                "ShardedRouter registers models by registry name (weights "
                "are rebuilt deterministically inside the owning shard); "
                f"got a built {type(model).__name__} — pass the registry "
                "name plus seed/build kwargs instead"
            )
        if name in self._models:
            raise ValueError(f"model {name!r} already registered")
        shard = self.ring.owner(name)
        self._call(shard, "register", name, model, tuple(input_shapes),
                   **build_kwargs)
        self._models[name] = shard
        return shard

    def models(self) -> tuple[str, ...]:
        return tuple(self._models)

    def shard_of(self, name: str) -> int:
        """The shard serving ``name`` (raises for unregistered models)."""
        try:
            return self._models[name]
        except KeyError:
            raise KeyError(
                f"no model {name!r} registered; have {sorted(self._models)}"
            ) from None

    # -- request lifecycle -----------------------------------------------------

    def submit(
        self, model: str, image: np.ndarray, deadline: float | None = None
    ) -> RouterHandle:
        return self._call(self.shard_of(model), "submit",
                          model, np.asarray(image), deadline)

    def flush(self) -> int:
        """Drain every shard's pending requests (overlapped across processes)."""
        return sum(self._broadcast("flush"))

    def poll(self, now: float | None = None) -> int:
        return sum(self._broadcast("poll", now))

    def result(self, handle: RouterHandle):
        return self._call(self.shard_of(handle.model), "result", handle)

    def wait_result(self, handle: RouterHandle, timeout: float = 10.0):
        return self._call(self.shard_of(handle.model), "wait_result", handle, timeout)

    def status(self, handle: RouterHandle):
        return self._call(self.shard_of(handle.model), "status", handle)

    def was_shed(self, handle: RouterHandle) -> bool:
        return self._call(self.shard_of(handle.model), "was_shed", handle)

    # -- observability ---------------------------------------------------------

    def reset_metrics(self) -> None:
        self._broadcast("reset_metrics")

    def metrics(self) -> dict:
        """Aggregate + per-shard metrics (each shard's RouterMetrics rides along).

        Counters sum across shards; ``throughput`` sums shard rates (each
        shard's wall window is its own — the processes genuinely overlap);
        ``aggregate_hit_rate`` re-weights by each shard's cache traffic.
        After :meth:`stop` this is the shards' final accounting.
        """
        shard_metrics = self._final or self._broadcast("metrics")
        completed = sum(m.completed for m in shard_metrics)
        per_model: dict[str, dict] = {}
        for m in shard_metrics:
            for model_name, served in m.per_model.items():
                per_model[model_name] = served.as_dict()
        weighted = [
            (m.aggregate_hit_rate, sum(
                c["hits"] + c["misses"] for c in m.per_model_cache.values()
            ))
            for m in shard_metrics
        ]
        traffic = sum(w for _, w in weighted)
        aggregate_hit_rate = (
            sum(r * w for r, w in weighted) / traffic if traffic else 1.0
        )
        return {
            "shards": self.shards,
            "completed": completed,
            "rejected": sum(m.rejected for m in shard_metrics),
            "shed": sum(m.shed for m in shard_metrics),
            "failed": sum(m.failed for m in shard_metrics),
            "throughput": sum(m.throughput for m in shard_metrics),
            "aggregate_hit_rate": aggregate_hit_rate,
            "plan_builds": sum(m.plan_builds for m in shard_metrics),
            "per_model": per_model,
            "model_shards": dict(self._models),
            "per_shard": [m.as_dict() for m in shard_metrics],
        }

    # -- lifecycle -------------------------------------------------------------

    def stop(self) -> None:
        """Stop every shard process (idempotent); joins with a grace period.

        Each shard first stops its Router, draining whatever is still
        queued, and returns its final metrics, which :meth:`metrics`
        reports from then on.
        """
        if self._stopped:
            return
        self._stopped = True
        final = []
        with self._lock:
            for conn in self._conns:
                try:
                    conn.send(("stop", (), {}))
                except (BrokenPipeError, OSError):
                    pass
            for conn in self._conns:
                try:
                    if conn.poll(30.0):
                        status, value = conn.recv()
                        if status == "ok":
                            final.append(value)
                except (EOFError, OSError):
                    pass
                conn.close()
        self._final = final if len(final) == self.shards else None
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - teardown backstop
                proc.terminate()
                proc.join(timeout=1.0)

    def __enter__(self) -> "ShardedRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
