#!/usr/bin/env bash
# Measured perf trajectory: perfbench at HEAD^ against this checkout.
#
#   bash benchmarks/perf_trajectory.sh
#
# Checks HEAD^ out into a temporary git worktree, then runs
# perfbench/run.py on every workload for seeds 1..5, 5 s per run, once from
# each side; the side that runs first alternates from seed to seed.  The
# logs go to perfbench/compare.py (base runs first, this checkout's runs
# --against them), and the script fails when
#   - a metric is "WORSE beyond bound" (the bounds in BENCHMARK.json),
#   - compare.py exits non-zero (status 2: the two sides' environment
#     stamps differ),
#   - a run of this checkout is not correct or has failed operations.
set -euo pipefail

base_ref=HEAD^
seconds=5
seeds=5
workloads=(train-mnet-scc serve-router-scc serve-gateway-dense)

root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
cleanup() {
    git -C "$root" worktree remove --force "$work/base" >/dev/null 2>&1 || true
    rm -rf "$work"
}
trap cleanup EXIT
git -C "$root" worktree add --detach "$work/base" "$base_ref" >/dev/null
mkdir "$work/logs"

run() {  # side checkout workload seed
    python3 "$2/perfbench/run.py" --workload "$3" --seed "$4" \
        --seconds "$seconds" > "$work/logs/$1-$3-$4.log"
}

for seed in $(seq 1 "$seeds"); do
    for wl in "${workloads[@]}"; do
        if (( seed % 2 )); then
            run base "$work/base" "$wl" "$seed"
            run head "$root" "$wl" "$seed"
        else
            run head "$root" "$wl" "$seed"
            run base "$work/base" "$wl" "$seed"
        fi
    done
done

status=0
python3 "$root/perfbench/compare.py" "$work"/logs/base-*.log \
    --against "$work"/logs/head-*.log | tee "$work/compare.txt" || status=$?
if (( status != 0 )); then
    echo "perf trajectory: compare.py exited $status (2: environment stamps differ)"
    exit 1
fi
if grep -q "WORSE beyond bound" "$work/compare.txt"; then
    echo "perf trajectory: a metric is worse than its bound against $base_ref"
    exit 1
fi
for log in "$work"/logs/head-*.log; do
    if ! tail -n 1 "$log" | python3 -c 'import json, sys; r = json.loads(sys.stdin.read()); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)'; then
        cat "$log"
        echo "perf trajectory: $(basename "$log") is not correct or has failed operations"
        exit 1
    fi
done
echo "perf trajectory: no metric worse beyond its bound against $base_ref"
