"""Kernel instrumentation counters shared by every backend.

:class:`KernelStats` is the measured counterpart of the analytic
:class:`repro.gpusim.kernel.KernelLaunch` descriptions: each backend kernel
increments these counters while it runs, and
:func:`repro.gpusim.crosscheck.crosscheck_scc_stats` verifies the two views
agree on the quantities the paper's comparisons hinge on (materialised
bytes, contraction launches, scatter/atomic traffic).
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field


@dataclass
class KernelStats:
    """Instrumentation counters accumulated by the kernel calls handed this object.

    ``bytes_materialized`` counts *logically* materialised temporaries: a
    scratch workspace reused from the plan cache still counts, because the
    quantity models the kernel's data-duplication traffic, not the
    allocator's behaviour.

    **Threading contract.**  A kernel bumps the fields of the stats object
    it was handed directly (the ``numpy``/``reference`` backends do).  A
    stats object shared between threads (serving threads can share one)
    must be mutated only through the locked :meth:`record` /
    :meth:`reset` methods: unlocked ``+=`` from several threads would race
    and lose updates.
    """

    bytes_materialized: int = 0      # temporary buffers (data duplication)
    gemm_calls: int = 0              # distinct contraction launches
    scatter_adds: int = 0            # elementwise updates via scatter (atomic analog)
    conflicting_scatter_adds: int = 0  # scatter updates hitting already-touched cells
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def record(
        self,
        bytes_materialized: int = 0,
        gemm_calls: int = 0,
        scatter_adds: int = 0,
        conflicting_scatter_adds: int = 0,
    ) -> None:
        """Atomically add deltas to the counters (safe from any thread)."""
        with self._lock:
            self.bytes_materialized += bytes_materialized
            self.gemm_calls += gemm_calls
            self.scatter_adds += scatter_adds
            self.conflicting_scatter_adds += conflicting_scatter_adds

    def reset(self) -> None:
        with self._lock:
            self.bytes_materialized = 0
            self.gemm_calls = 0
            self.scatter_adds = 0
            self.conflicting_scatter_adds = 0

    def snapshot(self) -> "KernelStats":
        """Point-in-time copy (e.g. forward-only counters before backward)."""
        with self._lock:
            return KernelStats(
                self.bytes_materialized,
                self.gemm_calls,
                self.scatter_adds,
                self.conflicting_scatter_adds,
            )


def scc_conflict_fraction(in_channels: int, out_channels: int, group_width: int) -> float:
    """Fraction of SCC scatter updates hitting an already-written input cell.

    Each input channel is read by ``Cout * gw / Cin`` filters on average;
    every read beyond the first conflicts during a push-style scatter.  Used
    by both the measuring kernels and the gpusim analytic model so the two
    stay consistent by construction.
    """
    reads_per_channel = out_channels * group_width / in_channels
    return max(0.0, 1.0 - 1.0 / reads_per_channel)
