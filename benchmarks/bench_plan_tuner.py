"""Plan auto-tuner gate (beyond the paper's figures) — ``repro.tune`` must
never lose to the static schedule tables, and its database must survive a
process boundary.

Protocol:

1. **Tune** the gate workload set (``bench_tiled_gemm``'s dense conv and
   pull-GEMM, plus one deliberately *off-table* conv whose static fallback
   leaves the forward contraction untiled) into a fresh
   :class:`~repro.backend.plan_db.PlanDatabase` file.  Candidates are
   ranked by their traced LPT makespan (the :mod:`repro.tune` module
   docstring says why, and what that model cannot tell).
2. **Never-worse gate** — on *every* gate workload the tuned schedule's
   modelled cost must be <= the static schedule's (the static point is in
   the candidate set, so a tuner that loses to it is broken, not unlucky).
3. **Off-table win gate** — on the off-table workload the tuned schedule
   must be *strictly* better: the whole reason the tuner exists is the
   workloads the hand-written tables don't cover.
4. **Round-trip gate** — a fresh interpreter pointed at the produced file
   via ``REPRO_PLAN_DB`` must resolve exactly the recorded tiles into its
   built plans (subprocess, not in-process: this is the persistence
   contract fleets rely on).
"""
import json
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

from common import emit, full_mode
from repro.backend.plan_db import PlanDatabase
from repro.tune import gate_workloads, tune_workloads
from repro.utils import format_table

# Modelled target pool size: worker counts are modelled from one serial
# trace, so tuning "for 4 workers" runs even on a 1-core container.
TUNE_WORKERS = 4

_SRC = Path(__file__).resolve().parents[1] / "src"

_ROUNDTRIP_SCRIPT = textwrap.dedent(
    """
    import json, sys
    from repro.backend import conv2d_plan, scc_plan
    from repro.core.channel_map import SCCConfig

    resolved = {}
    for spec in json.loads(sys.argv[1]):
        if spec["kind"] == "conv2d":
            plan = conv2d_plan(tuple(spec["x_shape"]), tuple(spec["w_shape"]),
                               spec["stride"], spec["padding"], 1, "float32")
            resolved[spec["name"]] = {"k_tile": plan.k_tile,
                                      "gradw_tile": plan.gradw_tile}
        else:
            plan = scc_plan(SCCConfig(*spec["cfg"]))
            resolved[spec["name"]] = {"pull_tile": plan.pull_tile}
    print(json.dumps(resolved))
    """
)


def _subprocess_resolved_tiles(db_path: Path, specs: list[dict]) -> dict:
    """Resolve every spec's schedule in a fresh interpreter under
    ``REPRO_PLAN_DB`` — the cross-process half of the persistence gate."""
    env = dict(os.environ)
    env["REPRO_PLAN_DB"] = str(db_path)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_SRC), env.get("PYTHONPATH", "")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _ROUNDTRIP_SCRIPT, json.dumps(specs)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def report_plan_tuner():
    specs = gate_workloads(full=full_mode())
    with tempfile.TemporaryDirectory() as tmp:
        db_path = Path(tmp) / "plans.jsonl"
        db = PlanDatabase(db_path)
        results = tune_workloads(
            specs, db=db, workers=TUNE_WORKERS, repeats=3 if full_mode() else 2
        )

        # Gate 2+3: never worse than static anywhere, strictly better off
        # the table.
        for res in results:
            assert res.best.score_s <= res.static.score_s, (
                f"tuned schedule lost to static on {res.name}: "
                f"{res.best.score_s} > {res.static.score_s}"
            )
        off = [r for r in results if r.record.get("off_table")]
        assert off, "gate set must include an off-table workload"
        for res in off:
            assert res.best.score_s < res.static.score_s, (
                f"tuner failed to beat the fallback heuristic on the "
                f"off-table workload {res.name}"
            )

        # Gate 4: a fresh process resolves the recorded tiles from disk.
        resolved = _subprocess_resolved_tiles(db_path, specs)
        roundtrip_rows = []
        for res, spec in zip(results, specs):
            tile_keys = (
                ("k_tile", "gradw_tile") if spec["kind"] == "conv2d"
                else ("pull_tile",)
            )
            recorded = {k: res.best.tiles[k] for k in tile_keys}
            got = resolved[res.name]
            assert got == recorded, (
                f"plan database round-trip mismatch on {res.name}: "
                f"fresh process resolved {got}, tuner recorded {recorded}"
            )
            roundtrip_rows.append({"workload": res.name, **got})

    rows = []
    for res in results:
        rows.append([
            res.name + (" (off-table)" if res.record.get("off_table") else ""),
            f"{res.static.describe()} {res.static.score_s * 1e3:.2f}ms",
            f"{res.best.describe()} {res.best.score_s * 1e3:.2f}ms",
            f"x{res.speedup_vs_static:.2f}",
            len(res.candidates),
        ])

    lines = [
        format_table(
            ["workload", "static", "tuned", "tuned_speedup", "candidates"],
            rows,
        ),
        "",
        f"modelled for {TUNE_WORKERS} workers; static schedule always in the "
        "candidate set, so tuned <= static by construction (asserted).",
        f"round-trip: fresh process under REPRO_PLAN_DB resolved "
        f"{len(roundtrip_rows)} tuned schedules bit-for-bit from disk.",
    ]
    data = {
        "workers": TUNE_WORKERS,
        "results": [
            {
                "workload": res.name,
                "off_table": bool(res.record.get("off_table")),
                "static_score_ms": res.static.score_s * 1e3,
                "tuned_score_ms": res.best.score_s * 1e3,
                "tuned_speedup": res.speedup_vs_static,
                "plan": dict(res.record["plan"]),
            }
            for res in results
        ],
        "min_tuned_speedup": min(r.speedup_vs_static for r in results),
        "offtable_tuned_speedup": min(r.speedup_vs_static for r in off),
        "roundtrip": roundtrip_rows,
    }
    emit("plan_tuner", "\n".join(lines), data)


if __name__ == "__main__":
    report_plan_tuner()
