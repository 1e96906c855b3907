"""Shared utilities: seeding, timing harness, formatting helpers, padding."""
from repro.utils.pad import pad2d
from repro.utils.rng import seed_all, get_rng
from repro.utils.timing import Timer, time_callable, MeasuredTime
from repro.utils.tables import format_table, format_float, human_count

__all__ = [
    "pad2d",
    "seed_all",
    "get_rng",
    "Timer",
    "time_callable",
    "MeasuredTime",
    "format_table",
    "format_float",
    "human_count",
]
