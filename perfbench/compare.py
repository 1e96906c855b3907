"""Summarise and compare saved benchmark runs.

    python3 perfbench/compare.py BASE_LOG... [--against NEW_LOG...]

Each log is the standard output of one ``perfbench/run.py`` run.  For every
(workload, metric) the base runs give a median and the spread between the
first and third quartile as a share of the median; with ``--against`` the
new runs' median is compared with the base median and judged against the
metric's bound in BENCHMARK.json.  Runs whose environment stamps differ
are never compared: the tool exits with status 2 naming the difference.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.stats import quartile_spread  # noqa: E402

#: Stamp fields two runs must share; the host probe is recorded, not matched.
MATCHED = ("env", "cpus", "blas", "python", "numpy", "seconds", "trace")


def load(path: str) -> tuple[dict, dict]:
    stamp = result = None
    for line in Path(path).read_text().splitlines():
        if line.startswith("stamp "):
            stamp = json.loads(line[len("stamp "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if stamp is None or result is None:
        raise SystemExit(f"{path}: no stamp or result line")
    return stamp, result


def check_stamps(runs) -> None:
    first_path, first = runs[0][0], runs[0][1]
    for path, stamp, _ in runs[1:]:
        for key in MATCHED:
            if stamp.get(key) != first.get(key):
                print(f"refusing to compare: {path} has {key}={stamp.get(key)!r}, "
                      f"{first_path} has {first.get(key)!r}", file=sys.stderr)
                sys.exit(2)


def group(runs) -> dict:
    out: dict[tuple[str, str], list[float]] = {}
    for _, stamp, result in runs:
        for name, metric in result["metrics"].items():
            out.setdefault((stamp["workload"], name), []).append(metric["value"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="+")
    parser.add_argument("--against", nargs="*", default=[])
    args = parser.parse_args(argv)
    base = [(p, *load(p)) for p in args.base]
    new = [(p, *load(p)) for p in args.against]
    check_stamps(base + new)
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    failed = sum(r["failed"] for _, _, r in base + new)
    incorrect = sum(not r["correct"] for _, _, r in base + new)
    probes = [s.get("host_probe_ms") for _, s, _ in base if s.get("host_probe_ms")]
    print(f"{len(base)} base runs, {len(new)} new runs; failed operations {failed}; "
          f"incorrect runs {incorrect}; host probe median "
          f"{statistics.median(probes) if probes else float('nan'):.3f} ms")
    a, b = group(base), group(new)
    print(f"{'workload':<22}{'metric':<30}{'n':>3}{'median':>12}{'spread':>8}"
          + (f"{'new':>12}{'change':>8}  verdict" if new else ""))
    for key in sorted(a):
        values = a[key]
        mid = statistics.median(values)
        spread = quartile_spread(values) if len(values) >= 2 else float("nan")
        line = f"{key[0]:<22}{key[1]:<30}{len(values):>3}{mid:>12.4f}{spread:>8.3f}"
        if key in b:
            other = statistics.median(b[key])
            spec = bounds.get(key[1])
            change = (other - mid) / mid if mid else float("nan")
            line += f"{other:>12.4f}{change:>+8.3f}"
            if spec is not None:
                worse = change if spec["better"] == "lower" else -change
                if worse > spec["bound"]:
                    verdict = "WORSE beyond bound"
                elif spread > spec["bound"]:
                    verdict = "unresolved (spread above bound)"
                else:
                    verdict = f"within bound {spec['bound']}"
                line += f"  {verdict}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
