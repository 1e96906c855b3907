"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-mnet-scc --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the ``repro`` package is imported from
``src/`` beside this directory.  ``--trace 0`` measures the end-to-end
metrics with no instrumentation installed; ``--trace 1`` installs span
wrappers around every layer (perfbench/trace.py), prints a per-layer table
and writes the spans to ``perfbench/out/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics.  A ``stamp`` line before it records the environment; compare runs
with ``perfbench/compare.py``, which refuses runs whose stamps differ.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("train-mnet-scc", "serve-router-scc", "serve-gateway-dense")


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "backend" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {src}; run from a checkout "
                 f"of the repository")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # One BLAS thread unless the caller says otherwise, set before NumPy
    # loads: the serving gateway already runs one batch per core, and
    # OpenBLAS threads on top oversubscribe the cores and roughly double the
    # run-to-run spread of its latency.  The setting is stamped.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # The whole run, and every thread it starts, on one CPU (the highest the
    # caller allows).  On a 2-CPU virtual machine the serving transports'
    # threads handing the interpreter lock across CPUs amplified the host's
    # drift: over five interleaved seeds the capacity spread between
    # quartiles was 0.13 (router) and 0.31 (gateway) unpinned, 0.05 and 0.11
    # pinned, and both served more requests per second pinned.  With one
    # usable CPU the kernel pool has one worker, so the gateway runs one
    # batch at a time.  The CPU set is stamped.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    _import_program()

    from perfbench.common import END_TO_END, MEASURED, PER_LAYER, env_block
    from perfbench.trace import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        if args.workload == "train-mnet-scc":
            from perfbench import train_mnet as workload
        elif args.workload == "serve-router-scc":
            from perfbench import serve_router as workload
        else:
            from perfbench import serve_gateway as workload
        result = workload.run(args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    for line in result.lines:
        print(line)
    for note in result.outcome.notes:
        print(note)
    print(f"{'end-to-end' + (' (traced run)' if args.trace else ''):<34}")
    for name, unit in MEASURED.items():
        print(f"  {name:<32} {result.end_to_end[name]:>14.4f} {unit}")
    per_layer = {**result.end_to_end, **result.per_layer}
    if args.trace:
        print("per-layer (times per training step or per served batch)")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<32} {per_layer.get(name, 0.0):>14.4f} {unit}")
        out = ROOT / "perfbench" / "out" / f"{args.workload}-seed{args.seed}.trace.json"
        Tracer.write_chrome(result.spans, out)
        print(f"spans: {len(result.spans)} written to {out.relative_to(ROOT)}")

    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **env_block(),
        "host_probe_ms": result.per_layer.get("host.probe_ms"),
    }
    print("stamp " + json.dumps(stamp, sort_keys=True))
    if args.trace:
        metrics = {name: {"value": float(per_layer.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": float(result.end_to_end[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": result.outcome.correct,
        "attempted": result.outcome.attempted,
        "failed": result.outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
