#!/bin/sh
# Every workload once, each in its own process, end-to-end metrics only.
# Usage (from the repository root): sh perfbench/all.sh [seed] [seconds]
seed=${1:-1}
seconds=${2:-50}
status=0
for workload in region_search code_audit; do
    python3 perfbench/run.py --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 || status=1
done
exit $status
