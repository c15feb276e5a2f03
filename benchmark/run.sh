#!/usr/bin/env bash
# Builds the benchmark once, then runs the untraced pass, the traced pass
# and the repeat-check over all four workloads. Run from anywhere.
#
#   benchmark/run.sh            # full: about 2 + 2 + 4 minutes
#   benchmark/run.sh --quick    # one round, a tenth of the jobs: under 20 s
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"

cargo build --release --offline --manifest-path "$manifest"
bench=(cargo run --release --offline --quiet --manifest-path "$manifest" --)

if [[ "${1:-}" == "--quick" ]]; then
    "${bench[@]}" --workload all --quick
    "${bench[@]}" --workload all --quick --traced
    exit
fi

"${bench[@]}" --workload all "$@"
"${bench[@]}" --workload all --traced "$@"
"${bench[@]}" --workload all --repeat-check "$@"
