#!/usr/bin/env bash
# Runs every workload BENCHMARK.json declares for a few seconds, traced,
# and fails unless each run's verdict line reports correct answers and no
# failed operations. perfbench's exit code does not carry that verdict;
# the last line it prints (one JSON object) does.
#
#   usage: ci/perfbench_smoke.sh [SECONDS]   (default 3)
set -euo pipefail
cd "$(dirname "$0")/.."
seconds="${1:-3}"
run=(cargo run --release --quiet --manifest-path perfbench/Cargo.toml --)
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
cargo build --release --quiet --manifest-path perfbench/Cargo.toml
for workload in $workloads; do
    verdict=$("${run[@]}" --workload "$workload" --seed 1 --seconds "$seconds" --trace 1 | tail -n 1)
    if ! printf '%s' "$verdict" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
sys.exit(0 if doc.get("correct") is True and doc.get("failed") == 0 else 1)'; then
        echo "perfbench $workload: failed verdict: $verdict" >&2
        exit 1
    fi
    echo "perfbench $workload: correct, 0 failed"
done
