"""Seeded inputs: open-loop arrival schedules, the phase plan, the host probe.

Every arrival offset, model choice, image pick and phase order comes from
the run's seed alone; the system under test only ever sees the resulting
requests.  Latency is timed from each request's *due* time (phase start +
offset), so a stalled sender or a stalled system shows up as latency on
the requests behind the stall, and the sender's own lateness is reported
as ``loadgen.lag_ms_tail``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Arrival:
    offset: float     # seconds after the phase start
    model: str        # key into the workload's request mix
    image: int        # index into that key's image pool


@dataclass
class Phase:
    """One fixed-rate stretch of an open-loop run."""

    kind: str                    # "ref" (reference rate) or "cap" (capacity probe)
    rate: float                  # requests per second offered
    duration: float              # seconds of arrivals
    arrivals: list[Arrival] = field(default_factory=list)
    traced: bool = False         # tracing on during this phase (traced runs)
    start: float = 0.0           # clock reading the offsets count from
    end: float = 0.0             # clock reading once every request ended


def poisson_offsets(rng: np.random.Generator, rate: float, duration: float) -> list[float]:
    """Arrival offsets of a Poisson process of ``rate`` over ``duration``."""
    offsets, t = [], 0.0
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= duration:
            return offsets
        offsets.append(t)


def bursty_offsets(rng: np.random.Generator, rate: float, duration: float,
                   mean_burst: float, spacing: float = 2e-4) -> list[float]:
    """Offsets of Poisson-timed bursts with geometric sizes (mean
    ``mean_burst``), so the mean rate is ``rate``; requests of one burst
    arrive ``spacing`` seconds apart."""
    offsets = []
    for start in poisson_offsets(rng, rate / mean_burst, duration):
        size = int(rng.geometric(1.0 / mean_burst))
        offsets.extend(start + k * spacing for k in range(size))
    return sorted(o for o in offsets if o < duration)


def build_phases(rng: np.random.Generator, seconds: float, ref_rate: float,
                 probe_rate: float, mix: dict[str, float], pool: int,
                 rounds: int = 5, probe_share: float = 0.4,
                 mean_burst: float | None = None) -> list[Phase]:
    """``rounds`` pairs of a reference-rate phase and a capacity probe.

    ``1 - probe_share`` of the window runs at the reference rate and the
    rest at ``probe_rate``, chosen well above what the program sustains.
    The two kinds alternate (ref, cap, ref, cap, ...), so a slow stretch
    of the host lands on both kinds instead of on one block of probes.
    ``mean_burst`` switches Poisson arrivals to bursts.
    """
    names = list(mix)
    shares = np.array([mix[n] for n in names], dtype=float)
    shares /= shares.sum()
    phases = []
    for _ in range(rounds):
        for kind, rate, share in (("ref", ref_rate, 1.0 - probe_share),
                                  ("cap", probe_rate, probe_share)):
            duration = seconds * share / rounds
            if mean_burst is None:
                offsets = poisson_offsets(rng, rate, duration)
            else:
                offsets = bursty_offsets(rng, rate, duration, mean_burst)
            picks = rng.choice(len(names), size=len(offsets), p=shares)
            images = rng.integers(pool, size=len(offsets))
            arrivals = [Arrival(float(o), names[k], int(i))
                        for o, k, i in zip(offsets, picks, images)]
            phases.append(Phase(kind, rate, duration, arrivals))
    return phases


def host_probe_ms(reps: int = 3) -> float:
    """Median wall time of a fixed pure numpy/Python loop, in ms.

    Recorded beside every run as a reading of how fast the host is at the
    moment; results are never divided by it.
    """
    a = np.arange(20000.0)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(100):
            acc += float((a * i).sum())
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2] * 1e3
