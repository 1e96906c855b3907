"""The persistent plan database: measured schedules keyed by workload + env.

This is the disk-backed half of the plan auto-tuner (:mod:`repro.tune`) —
the repo's analog of topi's generated per-workload schedule tables
(``gen_schedule.py`` in topi-intel), except *measured and persisted*
instead of hand-written.  A :class:`PlanDatabase` is a JSON-lines file of
records::

    {"workload": "<Workload.to_key() string>",
     "env":      {"backend": ..., "num_workers": ..., "host_cpus": ...},
     "plan":     {"backend": ..., "workers": ..., "k_tile": ...,
                  "gradw_tile": ..., "pull_tile": ...},
     "score_ms": ..., "static_score_ms": ..., "source": "repro.tune"}

Records are append-only and the **last record wins** per
``(workload, env)`` pair, so a fleet of servers can share one database
file: every process appends its tuning results and every fresh process
warm-starts on the best schedule measured anywhere on the same
environment class.

The *env stamp* is the same ``backend / num_workers / host_cpus`` block
``benchmarks/common.emit`` writes into every result JSON
(:func:`env_stamp` is now the single source of truth for both), because it
names exactly the configuration a measured schedule is valid for: a tile
size tuned for a 2-worker threaded pool is not evidence about a 16-worker
one.

**Activation.**  The env var ``REPRO_PLAN_DB`` names the database file;
when it is unset (and :func:`set_plan_db` was never called) no database is
active and every schedule decision falls through to the static tables in
:mod:`repro.backend.schedule` — bit-for-bit the pre-tuner behavior.  The
path may not exist yet: it loads as an empty database that tuning runs
append to, so fleets can point at a shared path before the first tune.

Schedules resolve at *plan build* time (see
:func:`repro.backend.schedule.conv_schedule`), so a database installed
after plans are cached does not retroactively retile them — call
:func:`repro.backend.clear_plan_cache` (or install the database before
first use, as ``REPRO_PLAN_DB`` does) to pick tuned schedules up.
"""
from __future__ import annotations

import json
import logging
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.backend.workload import Workload
from repro.faults import active_faults

_LOG = logging.getLogger(__name__)

__all__ = [
    "PlanDatabase",
    "active_plan_db",
    "env_stamp",
    "load_plan_db",
    "set_plan_db",
    "tuned_plan",
    "use_plan_db",
]


def env_stamp() -> dict:
    """The execution-relevant environment: backend, pool size, host CPUs.

    The exact block ``benchmarks/common.emit`` stamps result JSONs with
    (that helper delegates here).  ``num_workers`` is *configuration* only
    when explicitly pinned via ``REPRO_NUM_WORKERS`` or when the active
    backend actually schedules on the pool; otherwise it echoes a machine
    property and is recorded as ``None`` so same-machine runs with
    different idle pool sizes still match.
    """
    from repro.backend import REGISTRY, get_num_workers  # lazy: needs registration

    backend = REGISTRY.resolve_name("conv2d", "default")
    configured = backend == "threaded" or bool(
        os.environ.get("REPRO_NUM_WORKERS", "").strip()
    )
    return {
        "backend": backend,
        "num_workers": get_num_workers() if configured else None,
        "host_cpus": os.cpu_count() or 1,
    }


def _env_key(env: dict) -> str:
    return json.dumps(env, sort_keys=True, separators=(",", ":"))


def _safe_env_stamp() -> dict | str:
    """:func:`env_stamp` guarded for log paths (it needs full registration)."""
    try:
        return env_stamp()
    except Exception:  # pragma: no cover - mid-import quarantine logging
        return "<unavailable>"


class PlanDatabase:
    """Disk-backed (JSON-lines) table of tuned per-workload schedules.

    Thread-safe; :meth:`record` appends to the backing file immediately
    (one line per record, so concurrent appenders on one shared file
    interleave whole records) and :meth:`reload` folds in records other
    processes have appended since.  A database constructed with
    ``path=None`` is purely in-memory (tests, dry-run tuning).
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._entries: dict[tuple[str, str], dict] = {}
        self._loaded = 0    # valid records folded in across all loads
        self._skipped = 0   # corrupt/malformed rows quarantined across all loads
        if self.path is not None and self.path.exists():
            self._load_lines(self.path.read_text())

    # -- IO --------------------------------------------------------------------

    def _load_lines(self, text: str) -> None:
        """Fold JSONL rows in, quarantining corrupt/malformed ones.

        A torn write (process killed mid-append, full disk) must not take
        down every future process pointed at the shared file: bad rows are
        skipped and counted (:meth:`load_report`), with one env-stamped
        quarantine log line naming the file and line numbers, and loading
        continues — last *valid* record still wins per (workload, env).
        """
        bad_lines: list[int] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise TypeError(f"record is {type(record).__name__}, not dict")
                if not isinstance(record["workload"], str):
                    raise TypeError("workload key is not a string")
                if not isinstance(record["env"], dict):
                    raise TypeError("env block is not a dict")
                if not isinstance(record["plan"], dict):
                    raise TypeError("plan block is not a dict")
            except (json.JSONDecodeError, KeyError, TypeError):
                bad_lines.append(lineno)
                continue
            self._insert(record)
            self._loaded += 1
        if bad_lines:
            self._skipped += len(bad_lines)
            _LOG.warning(
                "plan db %s: quarantined %d corrupt row(s) at line(s) %s "
                "(env %s); loading continued with the remaining records",
                self.path if self.path is not None else "<in-memory>",
                len(bad_lines),
                ",".join(map(str, bad_lines[:10]))
                + ("..." if len(bad_lines) > 10 else ""),
                _safe_env_stamp(),
            )

    def _insert(self, record: dict) -> None:
        self._entries[(record["workload"], _env_key(record["env"]))] = record

    def load_report(self) -> dict:
        """Accounting of every load so far: path, valid rows, quarantined rows."""
        with self._lock:
            return {
                "path": str(self.path) if self.path is not None else None,
                "loaded": self._loaded,
                "skipped": self._skipped,
            }

    def reload(self) -> "PlanDatabase":
        """Re-read the backing file (picking up other processes' appends)."""
        if self.path is not None and self.path.exists():
            text = self.path.read_text()
            with self._lock:
                self._load_lines(text)
        return self

    # -- lookup / record -------------------------------------------------------

    def lookup(self, workload: Workload, env: dict | None = None) -> dict | None:
        """The tuned plan dict for ``(workload, env)``, or ``None``.

        ``env`` defaults to the *current* :func:`env_stamp`, which is the
        semantics schedule resolution wants: a record tuned under a
        different backend or pool configuration is not applicable here.
        """
        if env is None:
            env = env_stamp()
        with self._lock:
            record = self._entries.get((workload.to_key(), _env_key(env)))
        return dict(record["plan"]) if record is not None else None

    def record(
        self,
        workload: Workload,
        plan: dict,
        env: dict | None = None,
        **extra: Any,
    ) -> dict:
        """Insert (and persist, when file-backed) one tuned-plan record."""
        if env is None:
            env = env_stamp()
        record = {
            "workload": workload.to_key(),
            "env": dict(env),
            "plan": dict(plan),
            **extra,
        }
        with self._lock:
            self._insert(record)
            if self.path is not None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                line = json.dumps(record, sort_keys=True)
                inj = active_faults()
                if inj is not None:
                    # Simulated torn write: the on-disk row may be truncated
                    # (what a killed process leaves behind) while the
                    # in-memory entry stays correct — exactly the corruption
                    # the tolerant loader is tested against.
                    line = inj.corrupt_row(line, key=(record["workload"],))
                with self.path.open("a", encoding="utf-8") as fh:
                    fh.write(line + "\n")
        return record

    # -- introspection ---------------------------------------------------------

    def records(self) -> list[dict]:
        with self._lock:
            return [dict(r) for r in self._entries.values()]

    def workloads(self) -> list[Workload]:
        with self._lock:
            keys = [wl_key for wl_key, _ in self._entries]
        return [Workload.from_key(k) for k in keys]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


# ---------------------------------------------------------------------------
# The process-wide active database (REPRO_PLAN_DB)
# ---------------------------------------------------------------------------

_ACTIVE_LOCK = threading.Lock()
_ACTIVE: PlanDatabase | None = None
_RESOLVED = False  # REPRO_PLAN_DB is read once, lazily


def active_plan_db() -> PlanDatabase | None:
    """The database schedule resolution consults, or ``None`` (static only).

    Resolved lazily from ``REPRO_PLAN_DB`` on first call;
    :func:`set_plan_db` / :func:`load_plan_db` override it at runtime.
    """
    global _ACTIVE, _RESOLVED
    with _ACTIVE_LOCK:
        if not _RESOLVED:
            _RESOLVED = True
            path = os.environ.get("REPRO_PLAN_DB", "").strip()
            if path:
                _ACTIVE = PlanDatabase(path)
        return _ACTIVE


def set_plan_db(db: "PlanDatabase | str | Path | None") -> PlanDatabase | None:
    """Install (a path loads it) or clear (``None``) the active database.

    Plans already resident in the plan cache keep the schedule they were
    built with — clear the cache to re-resolve under the new database.
    """
    if isinstance(db, (str, Path)):
        db = PlanDatabase(db)
    global _ACTIVE, _RESOLVED
    with _ACTIVE_LOCK:
        _ACTIVE = db
        _RESOLVED = True
    return db


def load_plan_db(path: str | Path) -> PlanDatabase:
    """Load ``path`` and install it as the active plan database."""
    db = set_plan_db(path)
    assert db is not None
    return db


@contextmanager
def use_plan_db(db: "PlanDatabase | str | Path | None") -> Iterator[PlanDatabase | None]:
    """Scoped :func:`set_plan_db` (tests, tuning runs): restores on exit."""
    global _ACTIVE, _RESOLVED
    with _ACTIVE_LOCK:
        previous = (_ACTIVE, _RESOLVED)
    installed = set_plan_db(db)
    try:
        yield installed
    finally:
        with _ACTIVE_LOCK:
            _ACTIVE, _RESOLVED = previous


def tuned_plan(workload: Workload | None) -> dict | None:
    """The active database's plan for ``workload`` under the current env.

    The single consult point schedule resolution goes through: returns
    ``None`` — and costs one ``None`` check — when no database is active,
    keeping the no-database path bit-for-bit the static-table behavior.
    """
    if workload is None:
        return None
    db = active_plan_db()
    if db is None:
        return None
    return db.lookup(workload)
