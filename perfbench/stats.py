"""The benchmark's own statistics: the tail rule, quartile spreads, the
backlog check and the capacity rule.

Pure functions over plain lists so ``perfbench/selftest.py`` can pin them
down without running a workload.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

#: Samples that must lie strictly beyond the reported tail value.
TAIL_BEYOND = 10
#: Standard percentiles the tail is taken from when the sample allows.
TAIL_PERCENTILES = (0.999, 0.99, 0.95, 0.9)


@dataclass(frozen=True)
class Tail:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it."""

    value: float
    q: float          # the percentile's rank as a share of the sample
    n: int            # sample size
    beyond: int       # samples strictly beyond the reported value's rank

    def label(self) -> str:
        return f"p{100 * self.q:.4g} (n={self.n}, {self.beyond} beyond)"


def tail(values) -> Tail | None:
    """Tail of a sample: the highest standard percentile (p90 ... p99.9,
    nearest rank) that leaves at least ``TAIL_BEYOND`` samples beyond it.
    A sample too small for p90 falls back to the order statistic with
    exactly ``TAIL_BEYOND`` samples beyond it, as long as that sits at or
    above the median; smaller samples have no tail (``None``)."""
    n = len(values)
    ordered = sorted(values)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q * n)
        if n - rank >= TAIL_BEYOND:
            return Tail(ordered[rank - 1], q, n, n - rank)
    if n < 2 * (TAIL_BEYOND + 1):
        return None
    rank = n - TAIL_BEYOND
    return Tail(ordered[rank - 1], rank / n, n, TAIL_BEYOND)


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, with quartiles as ``statistics.quantiles(values, n=4)`` gives."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else math.inf


def backlog(due, done, t: float) -> int:
    """Requests due by ``t`` and not yet finished at ``t``."""
    return sum(1 for d in due if d <= t) - sum(1 for d in done if d <= t)


def backlog_growing(due, done, start: float, end: float, slack: int) -> bool:
    """Whether a fixed-rate phase's queue grew while it ran.

    ``due``/``done`` are the phase's requests' due and finish times and
    arrivals span ``[start, end)``.  A system keeping up holds a backlog
    that fluctuates around ``rate * latency``; one falling behind adds
    ``(rate - capacity)`` requests every second.  The backlog counts as
    growing when it rose over the phase by more than ``slack`` requests
    (one bucket being formed, or one burst) plus a tenth of the phase's
    arrivals.  The window is the whole phase: a probe of a few seconds has
    too few arrivals in any part of it to tell the growth from the arrival
    count's own noise and from whole batches finishing at once.
    """
    arrivals = sum(1 for d in due if start <= d < end)
    growth = backlog(due, done, end) - backlog(due, done, start)
    return growth > slack + 0.1 * arrivals


@dataclass(frozen=True)
class RatePhase:
    """Outcome of one fixed-rate capacity probe."""

    rate: float         # offered requests per second
    busy: float         # seconds from the probe's start to its last completion
    completed: int      # requests the probe completed
    growing: bool       # backlog_growing() verdict


def capacity(phases) -> tuple[float, bool]:
    """Requests the program completes per second while it is overloaded.

    The probes offer more than the program can serve, so its backlog grows
    and it runs flat out from a probe's start until the backlog has
    drained; completions per second of that busy time are then the highest
    rate it sustains.  Returns that rate and whether every probe's backlog
    did grow -- if one did not, the program kept up with the probe rate and
    the figure is only a lower bound.
    """
    if not phases:
        raise ValueError("capacity of an empty sweep")
    rate = sum(p.completed for p in phases) / sum(p.busy for p in phases)
    return rate, all(p.growing for p in phases)
