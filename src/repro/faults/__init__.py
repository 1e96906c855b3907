"""Deterministic fault injection for the serving/backend stack.

See :mod:`repro.faults.plane` for the model: seeded, clock-free fire
decisions per ``(site, key, attempt)``; poisoned request ids for
deterministic per-request failures; ``max_fires`` budgets for scripted
outages.  The serving stack's tolerance layers — bisect-retry isolation,
backoff retries, circuit breakers, backend degradation — are tested and
benchmarked against this plane (``tests/test_faults.py``,
``benchmarks/bench_fault_tolerance.py``).
"""
from repro.faults.plane import (
    FAULT_SITES,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    PoisonedRequest,
    active_faults,
    clear_faults,
    install_faults,
    use_faults,
)

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
