"""The deterministic fault-injection plane.

Production serving treats partial failure as the normal case; this module
makes failure *schedulable* so the serving stack's tolerance machinery
(bisect-retry isolation, backoff retries, circuit breakers, backend
degradation — see :mod:`repro.serve`) can be exercised deterministically,
in the same pure, injected style as the scheduling policies in
:mod:`repro.serve.sched`: no wall clock, no ``random`` module state, no
dependence on thread interleaving for the *decision* of whether a fault
fires.

Every fire decision is a pure function of ``(seed, site, key, attempt)``
hashed through CRC-32 — two runs with the same seed and the same request
trace inject the identical faults, and a retry of the same batch draws a
*different* (but equally deterministic) value because the attempt number
is part of the hash.  That is what lets the chaos soak assert bitwise
identity against a fault-free run: the faults perturb *when* work executes,
never *what* it computes.

Injection sites (``FaultSpec.site``):

``kernel``
    the model forward of one executed batch raises :class:`InjectedFault`
    (transient — a retry may succeed) or :class:`PoisonedRequest`
    (deterministic — any batch containing a poisoned request id raises,
    every time, which is what the bisect-retry isolation converges on);
``slow_batch``
    one executed batch is delayed by ``FaultSpec.delay`` seconds (through
    the transport's injected ``sleep``, so virtual-clock tests never
    actually block);
``plan_build``
    building the batch's :class:`~repro.backend.ModelPlan` raises.

The plane is activated per-process with :func:`install_faults` /
:func:`use_faults`; when no injector is installed every hook is a single
``None`` check (the production path costs nothing and changes nothing).
"""
from __future__ import annotations

import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = [
    "FAULT_SITES",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "PoisonedRequest",
    "active_faults",
    "clear_faults",
    "install_faults",
    "use_faults",
]

#: Every place the serving/backend stack consults the plane.
FAULT_SITES = ("kernel", "slow_batch", "plan_build")


class InjectedFault(RuntimeError):
    """A fault the plane injected (transient unless :class:`PoisonedRequest`).

    Carries its ``site`` so tolerance layers can classify it; transports
    treat it exactly like a real failure of the same site — the plane
    exists so those paths are exercised on demand, not special-cased.
    """

    def __init__(self, site: str, detail: str, key: tuple = ()) -> None:
        super().__init__(f"injected {site} fault: {detail}")
        self.site = site
        self.key = key


class PoisonedRequest(InjectedFault):
    """A *deterministic* kernel fault tied to specific request ids.

    Any batch whose request ids intersect the poison set raises this,
    every time — no retry can succeed, so the only correct response is to
    isolate the poisoned id(s) away from their co-batched neighbours
    (:meth:`repro.serve.engine.ModelExecutor.run_resilient`) and fail just
    them with :class:`~repro.serve.engine.RequestFailed`.
    """

    def __init__(self, ids: Sequence[int], model: str | None = None) -> None:
        self.ids = tuple(sorted(ids))
        self.model = model
        tag = f" of model {model!r}" if model else ""
        super().__init__(
            "kernel", f"poisoned request(s) {list(self.ids)}{tag}", key=self.ids
        )


@dataclass
class FaultSpec:
    """One configured fault source: where, how often, and for whom.

    ``rate`` is the per-opportunity fire probability (each check at the
    spec's site is one opportunity; a retry is a fresh opportunity).
    ``models`` / ``backends`` restrict the spec to matching model names /
    executing kernel backends (``None`` = all) — a backend filter is how
    the degradation tests model "this accelerator is broken": demoting the
    workload off the faulty backend makes the faults stop, which is the
    observable recovery.  ``max_fires`` caps total fires, scripting
    transient outages that end (breaker half-open probes then succeed and
    close the breaker).  ``delay`` is the injected seconds for
    ``slow_batch`` specs.
    """

    site: str
    rate: float = 1.0
    models: tuple[str, ...] | None = None
    backends: tuple[str, ...] | None = None
    max_fires: int | None = None
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"site must be one of {FAULT_SITES}, got {self.site!r}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.max_fires is not None and self.max_fires < 0:
            raise ValueError(f"max_fires must be >= 0, got {self.max_fires}")
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")
        if self.models is not None:
            self.models = tuple(self.models)
        if self.backends is not None:
            self.backends = tuple(self.backends)

    def applies(self, model: str | None, backend: str | None) -> bool:
        if self.models is not None and model not in self.models:
            return False
        if self.backends is not None and backend not in self.backends:
            return False
        return True


def _u01(seed: int, *parts: object) -> float:
    """Deterministic uniform [0, 1) draw from a CRC-32 of the parts."""
    text = ":".join(str(p) for p in parts)
    crc = zlib.crc32(f"{seed}:{text}".encode())
    return crc / 4294967296.0


class FaultInjector:
    """The configured fault plane one chaos run installs.

    Parameters
    ----------
    specs:
        the :class:`FaultSpec` sources to draw from.
    seed:
        hash seed for every fire/poison/jitter decision.
    poison_ids:
        explicit ``(model, request_id)`` pairs (or bare ids, matching any
        model) that poison every batch containing them.
    poison_rate:
        probability that any given request id is poisoned, drawn
        deterministically per ``(seed, model, id)`` — the statistical way
        to poison a trace without enumerating ids.

    Fire decisions are pure functions of the draw key; only the
    ``max_fires`` budgets and the observability counters are mutable state
    (under a lock, so concurrent transports may share one injector).
    """

    def __init__(
        self,
        specs: Sequence[FaultSpec] = (),
        seed: int = 0,
        poison_ids: Sequence[int | tuple[str | None, int]] = (),
        poison_rate: float = 0.0,
        poison_models: Sequence[str] | None = None,
    ) -> None:
        if not 0.0 <= poison_rate <= 1.0:
            raise ValueError(f"poison_rate must be in [0, 1], got {poison_rate}")
        self.specs = list(specs)
        self.seed = seed
        self.poison_rate = poison_rate
        self.poison_models = (
            tuple(poison_models) if poison_models is not None else None
        )
        self._poison: set[tuple[str | None, int]] = set()
        for entry in poison_ids:
            if isinstance(entry, tuple):
                self._poison.add((entry[0], int(entry[1])))
            else:
                self._poison.add((None, int(entry)))
        self._lock = threading.Lock()
        self._spec_fires = [0] * len(self.specs)
        self._site_fires: dict[str, int] = {site: 0 for site in FAULT_SITES}
        self._poison_hits = 0

    # -- decisions -------------------------------------------------------------

    def _fire(
        self,
        site: str,
        key: tuple,
        attempt: int,
        model: str | None,
        backend: str | None,
    ) -> FaultSpec | None:
        """The first matching spec that fires for this opportunity, if any."""
        for index, spec in enumerate(self.specs):
            if spec.site != site or not spec.applies(model, backend):
                continue
            if _u01(self.seed, site, index, model, key, attempt) >= spec.rate:
                continue
            with self._lock:
                if (
                    spec.max_fires is not None
                    and self._spec_fires[index] >= spec.max_fires
                ):
                    continue
                self._spec_fires[index] += 1
                self._site_fires[site] += 1
            return spec
        return None

    def poisoned_subset(
        self, ids: Sequence[int], model: str | None = None
    ) -> list[int]:
        """The poisoned ids among ``ids`` (explicit set plus rate draws)."""
        hit = []
        for rid in ids:
            if (model, rid) in self._poison or (None, rid) in self._poison:
                hit.append(rid)
                continue
            if self.poison_rate > 0.0 and (
                self.poison_models is None or model in self.poison_models
            ):
                if _u01(self.seed, "poison", model, rid) < self.poison_rate:
                    hit.append(rid)
        return hit

    def poison(self, request_id: int, model: str | None = None) -> None:
        """Explicitly poison one request id (optionally model-scoped)."""
        with self._lock:
            self._poison.add((model, int(request_id)))

    # -- hooks the stack calls -------------------------------------------------

    def check(
        self,
        site: str,
        key: tuple = (),
        attempt: int = 0,
        model: str | None = None,
        backend: str | None = None,
    ) -> None:
        """Raise :class:`InjectedFault` when a matching spec fires."""
        spec = self._fire(site, key, attempt, model, backend)
        if spec is not None:
            raise InjectedFault(
                site,
                f"model={model!r} key={key} attempt={attempt}"
                + (f" backend={backend!r}" if backend else ""),
                key=key,
            )

    def kernel_fault(
        self,
        ids: Sequence[int],
        key: tuple = (),
        attempt: int = 0,
        model: str | None = None,
        backend: str | None = None,
    ) -> None:
        """The batch-forward hook: poison first, then transient draws.

        Poison is checked before the rate specs because it is the
        deterministic component — a batch carrying a poisoned id must fail
        identically on every attempt or the bisect isolation could not
        converge on it.
        """
        poisoned = self.poisoned_subset(ids, model)
        if poisoned:
            with self._lock:
                self._poison_hits += 1
            raise PoisonedRequest(poisoned, model)
        self.check("kernel", key=tuple(ids) + key, attempt=attempt,
                   model=model, backend=backend)

    def batch_delay(
        self,
        key: tuple = (),
        attempt: int = 0,
        model: str | None = None,
        backend: str | None = None,
    ) -> float:
        """Injected extra seconds for this batch (0.0 when nothing fires)."""
        spec = self._fire("slow_batch", key, attempt, model, backend)
        return spec.delay if spec is not None else 0.0

    # -- observability ---------------------------------------------------------

    def stats(self) -> dict:
        """Fire counts per site plus poison hits (for soak accounting)."""
        with self._lock:
            return {
                "site_fires": dict(self._site_fires),
                "spec_fires": list(self._spec_fires),
                "poison_hits": self._poison_hits,
            }


# ---------------------------------------------------------------------------
# The process-wide active injector
# ---------------------------------------------------------------------------

_ACTIVE_LOCK = threading.Lock()
_ACTIVE: FaultInjector | None = None


def install_faults(injector: FaultInjector | None) -> FaultInjector | None:
    """Install (or clear, with ``None``) the process-wide fault injector."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = injector
    return injector


def clear_faults() -> None:
    """Remove the active injector (every hook returns to the no-op path)."""
    install_faults(None)


def active_faults() -> FaultInjector | None:
    """The injector the stack's hooks consult, or ``None`` (no faults)."""
    return _ACTIVE


@contextmanager
def use_faults(injector: FaultInjector | None) -> Iterator[FaultInjector | None]:
    """Scoped :func:`install_faults` (tests, chaos runs): restores on exit."""
    with _ACTIVE_LOCK:
        previous = _ACTIVE
    install_faults(injector)
    try:
        yield injector
    finally:
        install_faults(previous)
