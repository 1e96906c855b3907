"""Shared fixtures for the benchmark harness.

Every ``bench_*`` module regenerates one table or figure of the paper, or
one measurement beyond them (``run_all.py`` lists them all).  Each module
has two faces:

- a ``report_*`` function that computes and prints the paper's rows/series
  (runnable standalone via ``python benchmarks/run_all.py``),
- ``test_*`` entries using the pytest-benchmark fixture that time the
  measured-kernel component under ``pytest benchmarks/ --benchmark-only``.

Standalone runs write their reports to ``benchmarks/results/`` so a full run
leaves an auditable record.  Under pytest, reports go to a session temp
directory instead: a gate run leaves the committed results untouched.

Set ``REPRO_BENCH_FULL=1`` for the longer, better-converged accuracy runs
(the defaults keep a full ``--benchmark-only`` sweep to a few minutes on a
laptop CPU).
"""
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def device():
    from repro.gpusim import tesla_v100

    return tesla_v100()


@pytest.fixture(scope="session", autouse=True)
def _results_to_session_tmp(tmp_path_factory):
    import common

    common.RESULTS_DIR = tmp_path_factory.mktemp("results")


@pytest.fixture(autouse=True)
def _seed_each_test():
    from repro.utils import seed_all

    seed_all(0)


def full_mode() -> bool:
    return os.environ.get("REPRO_BENCH_FULL", "0") == "1"
