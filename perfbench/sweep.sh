#!/usr/bin/env bash
# Runs workloads once per seed and appends every result to a record
# file, for `perfbench -compare` (an A/A check compares two such files
# made from the same code):
#
#   bash perfbench/sweep.sh OUT.jsonl "1 2 3 4 5 6 7 8 9 10" [seconds] [workload...]
#
# Runs from the root of a checkout; with no workloads named it runs the
# two that BENCHMARK.json lists. Runs are sequential: concurrent runs
# would share the CPUs.
set -euo pipefail
out=$1
seeds=$2
seconds=${3:-55}
shift $(( $# < 3 ? $# : 3 ))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(relax-n250m30 vmwave-n100m5)
fi
for w in "${workloads[@]}"; do
	for s in $seeds; do
		bash perfbench/run.sh --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 --record "$out" | tail -n 1
	done
done
