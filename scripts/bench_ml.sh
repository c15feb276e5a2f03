#!/usr/bin/env bash
# Regenerates every row of BENCH_ml.json in one run and stamps each with
# the commit, core count and compiler that measured it, so the file is one
# session's numbers and says whose. Run on a quiet machine; rows are only
# comparable with rows of the same run (crates/bench/README.md).
#
#   scripts/bench_ml.sh                        # default time budget
#   CRITERION_MEASURE_MS=300 scripts/bench_ml.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

commit=$(git rev-parse --short HEAD)
git diff --quiet HEAD -- crates vendor Cargo.toml Cargo.lock || commit+="+dirty"
stamp="\"commit\": \"$commit\", \"nproc\": $(nproc), \"rustc\": \"$(rustc --version | cut -d' ' -f2)\""

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# The criterion shim writes one array per bench binary (overwriting).
benches=(ml_primitives warm_vs_cold engine_overhead mitigation_sweep node_health_sweep codec_frames)
for bench in "${benches[@]}"; do
    CRITERION_JSON="$tmp/$bench.json" cargo bench --offline -p nurd-bench --bench "$bench"
done

{
    echo '['
    for bench in "${benches[@]}"; do
        grep '"id"' "$tmp/$bench.json"
    done | sed -e 's/},\{0,1\}$//' -e "s/\$/, $stamp},/" -e '$ s/,$//'
    echo ']'
} >BENCH_ml.json
echo "BENCH_ml.json: $(grep -c '"id"' BENCH_ml.json) rows stamped $commit"
