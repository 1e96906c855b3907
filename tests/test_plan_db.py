"""The persistent plan database and its schedule-resolution hook.

The contract under test: ``REPRO_PLAN_DB`` absent and no ``set_plan_db``
call means schedule resolution is bit-for-bit the static tables; a database
record for ``(workload, current env)`` overrides exactly the fields it
carries; records persist as JSON lines where the last record wins and a
fresh load (or process) sees the same schedules.
"""
import json

import pytest

from repro.backend import (
    Workload,
    clear_plan_cache,
    conv2d_plan,
    scc_plan,
)
from repro.backend.plan_db import (
    PlanDatabase,
    active_plan_db,
    env_stamp,
    set_plan_db,
    tuned_plan,
    use_plan_db,
)
from repro.backend.schedule import TileSchedule, conv_schedule, pull_tile_for
from repro.core.channel_map import SCCConfig


@pytest.fixture(autouse=True)
def _no_ambient_db():
    """Run each test with no active database and a cold plan cache."""
    with use_plan_db(None):
        clear_plan_cache()
        yield
    clear_plan_cache()


def conv_wl(n=8, cin=64, cout=128):
    return Workload.make(
        "conv2d", (n, cin, 16, 16), (cout, cin, 3, 3), "float32",
        stride=1, padding=1, groups=1,
    )


# ---------------------------------------------------------------------------
# Workload <-> key serialization
# ---------------------------------------------------------------------------

def test_workload_key_round_trips():
    for wl in (
        conv_wl(),
        Workload.make("scc_plan", cin=64, cout=128, cg=4, co=0.25),
        Workload.make("einsum", in_shape=((2, 3), (3, 4)), dtype="float64",
                      subscripts="ij,jk->ik"),
    ):
        key = wl.to_key()
        assert Workload.from_key(key) == wl
        assert Workload.from_key(key).to_key() == key   # stable fixpoint
        json.loads(key)                                 # valid JSON


def test_workload_key_is_canonical_across_param_order():
    a = Workload.make("op", (1, 2), stride=1, padding=0)
    b = Workload.make("op", (1, 2), padding=0, stride=1)
    assert a.to_key() == b.to_key()


# ---------------------------------------------------------------------------
# PlanDatabase: record / lookup / persistence
# ---------------------------------------------------------------------------

def test_record_and_lookup_in_memory():
    db = PlanDatabase()                    # path=None: in-memory
    wl = conv_wl()
    assert db.lookup(wl) is None
    db.record(wl, {"k_tile": 8, "gradw_tile": 2})
    assert db.lookup(wl) == {"k_tile": 8, "gradw_tile": 2}
    assert len(db) == 1
    assert db.workloads() == [wl]


def test_lookup_refuses_cross_env_records():
    db = PlanDatabase()
    wl = conv_wl()
    other_env = dict(env_stamp(), num_workers=999)
    db.record(wl, {"k_tile": 8}, env=other_env)
    # A schedule tuned under a different pool configuration is not evidence
    # about this one: the current-env lookup must miss.
    assert db.lookup(wl) is None
    assert db.lookup(wl, env=other_env) == {"k_tile": 8}


def test_last_record_wins_and_round_trips_through_file(tmp_path):
    path = tmp_path / "plans.jsonl"
    db = PlanDatabase(path)
    wl = conv_wl()
    db.record(wl, {"k_tile": 8})
    db.record(wl, {"k_tile": 32})
    assert db.lookup(wl) == {"k_tile": 32}
    # Two JSON lines on disk; a fresh load folds them last-wins.
    assert len(path.read_text().splitlines()) == 2
    fresh = PlanDatabase(path)
    assert len(fresh) == 1
    assert fresh.lookup(wl) == {"k_tile": 32}


def test_missing_file_loads_empty_and_creates_on_record(tmp_path):
    path = tmp_path / "not-yet" / "plans.jsonl"
    db = PlanDatabase(path)                # fleets point at shared paths
    assert len(db) == 0                    # before the first tune exists
    db.record(conv_wl(), {"k_tile": 4})
    assert path.exists()


def test_reload_picks_up_foreign_appends(tmp_path):
    path = tmp_path / "plans.jsonl"
    writer, reader = PlanDatabase(path), PlanDatabase(path)
    writer.record(conv_wl(), {"k_tile": 16})
    assert reader.lookup(conv_wl()) is None        # not seen yet
    assert reader.reload().lookup(conv_wl()) == {"k_tile": 16}


# ---------------------------------------------------------------------------
# Corruption tolerance: torn writes must not take the shared file down
# ---------------------------------------------------------------------------

def test_load_quarantines_corrupt_rows_and_reports(tmp_path, caplog):
    path = tmp_path / "plans.jsonl"
    wl = conv_wl()
    good = json.dumps({"workload": wl.to_key(), "env": env_stamp(),
                       "plan": {"k_tile": 8}})
    path.write_text(
        "\n".join([
            good,
            good[: len(good) // 2],                    # torn write (truncated)
            "{not json at all",                        # garbage
            json.dumps(["wrong", "type"]),             # not a dict
            json.dumps({"workload": 42, "env": {}, "plan": {}}),  # bad field
            json.dumps({"workload": wl.to_key()}),     # missing keys
            "",                                        # blank line: not an error
        ]) + "\n"
    )
    with caplog.at_level("WARNING", logger="repro.backend.plan_db"):
        db = PlanDatabase(path)
    # The one valid row loaded; the five bad rows were skipped and counted.
    assert db.lookup(wl) == {"k_tile": 8}
    assert db.load_report() == {"path": str(path), "loaded": 1, "skipped": 5}
    # One env-stamped quarantine line naming the file and the bad lines.
    quarantine = [r for r in caplog.records if "quarantined" in r.getMessage()]
    assert len(quarantine) == 1
    message = quarantine[0].getMessage()
    assert str(path) in message and "5 corrupt row(s)" in message
    assert "2,3,4,5,6" in message and "env" in message


def test_injected_torn_write_is_survived_by_fresh_load(tmp_path):
    from repro.faults import FaultInjector, FaultSpec, use_faults

    path = tmp_path / "plans.jsonl"
    db = PlanDatabase(path)
    wl_ok, wl_torn = conv_wl(), conv_wl(n=4)
    db.record(wl_ok, {"k_tile": 8})
    inj = FaultInjector([FaultSpec(site="plan_db_row", rate=1.0, max_fires=1)])
    with use_faults(inj):
        db.record(wl_torn, {"k_tile": 16})     # the on-disk row is truncated
    # The writing process keeps its in-memory entry (the write tore, the
    # record didn't), and a fresh process skips the torn row but still sees
    # every intact one.
    assert db.lookup(wl_torn) == {"k_tile": 16}
    fresh = PlanDatabase(path)
    assert fresh.lookup(wl_ok) == {"k_tile": 8}
    assert fresh.lookup(wl_torn) is None
    assert fresh.load_report()["skipped"] == 1


# ---------------------------------------------------------------------------
# Activation: set_plan_db / use_plan_db / tuned_plan
# ---------------------------------------------------------------------------

def test_no_database_means_no_tuned_plans():
    assert active_plan_db() is None
    assert tuned_plan(conv_wl()) is None
    assert tuned_plan(None) is None


def test_set_plan_db_installs_and_clears(tmp_path):
    db = set_plan_db(tmp_path / "plans.jsonl")     # a path loads it
    assert active_plan_db() is db
    set_plan_db(None)
    assert active_plan_db() is None


def test_use_plan_db_restores_previous_state():
    outer = PlanDatabase()
    set_plan_db(outer)
    with use_plan_db(PlanDatabase()) as inner:
        assert active_plan_db() is inner
    assert active_plan_db() is outer


# ---------------------------------------------------------------------------
# Schedule resolution consults the active database
# ---------------------------------------------------------------------------

def test_conv_schedule_prefers_tuned_record_per_field():
    wl = conv_wl()
    db = PlanDatabase()
    db.record(wl, {"k_tile": 8})           # no gradw_tile in the record
    static = conv_schedule((8, 64, 16, 16), (128, 64, 3, 3), 1, 1)
    with use_plan_db(db):
        tuned = conv_schedule((8, 64, 16, 16), (128, 64, 3, 3), 1, 1,
                              workload=wl)
    # Tuned field wins; the missing field inherits the static value.
    assert tuned == TileSchedule(k_tile=8, gradw_tile=static.gradw_tile)
    # Without the workload (or outside the db scope) the static entry holds.
    with use_plan_db(db):
        assert conv_schedule((8, 64, 16, 16), (128, 64, 3, 3), 1, 1) == static
    assert conv_schedule((8, 64, 16, 16), (128, 64, 3, 3), 1, 1,
                         workload=wl) == static


def test_pull_tile_prefers_tuned_record():
    wl = Workload.make("scc_plan", cin=64, cout=128, cg=4, co=0.25)
    db = PlanDatabase()
    db.record(wl, {"pull_tile": 64})
    assert pull_tile_for(64, 128) == 32            # static table entry
    with use_plan_db(db):
        assert pull_tile_for(64, 128, workload=wl) == 64


def test_built_plans_resolve_tuned_tiles():
    wl = conv_wl(n=6, cin=24, cout=40)
    db = PlanDatabase()
    db.record(wl, {"k_tile": 12, "gradw_tile": 3})
    scc_wl = Workload.make("scc_plan", cin=64, cout=128, cg=4, co=0.25)
    db.record(scc_wl, {"pull_tile": 64})
    with use_plan_db(db):
        plan = conv2d_plan((6, 24, 16, 16), (40, 24, 3, 3), 1, 1, 1, "float32")
        assert (plan.k_tile, plan.gradw_tile) == (12, 3)
        assert scc_plan(SCCConfig(64, 128, 4, 0.25)).pull_tile == 64
    clear_plan_cache()
    # No database: the same workloads build on the static/heuristic tiles.
    plan = conv2d_plan((6, 24, 16, 16), (40, 24, 3, 3), 1, 1, 1, "float32")
    assert (plan.k_tile, plan.gradw_tile) == (0, 2)
    assert scc_plan(SCCConfig(64, 128, 4, 0.25)).pull_tile == 32


def test_env_stamp_shape():
    stamp = env_stamp()
    assert set(stamp) == {"backend", "num_workers", "host_cpus"}
    assert isinstance(stamp["backend"], str)
    assert stamp["host_cpus"] >= 1
    # num_workers is configuration only when pinned/threaded; under the
    # default test env it must be None so same-machine runs with different
    # idle pool sizes still match (perfbench/compare.py refuses runs whose
    # stamps differ).
    assert stamp["num_workers"] is None or isinstance(stamp["num_workers"], int)
