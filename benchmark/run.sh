#!/usr/bin/env bash
# The repo benchmark: build, pin to one CPU, run.
#
#   benchmark/run.sh                    all six workloads, one line per metric,
#                                       results in benchmark/out/results.json
#   benchmark/run.sh --trace            the same, then each workload again traced:
#                                       per-layer metrics, benchmark/out/trace-<workload>.json
#   benchmark/run.sh --sets N           N sets on successive seeds, spreads, and a
#                                       non-zero exit when two sets disagree
#   benchmark/run.sh compare A.json B.json
#                                       medians of two result files against the bounds
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                       one run, the form /BENCHMARK.json's driver uses
#
# Exits non-zero when the build fails, when the process cannot be pinned, when
# the data directory is on tmpfs, or when an output check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Where a driver names a target directory it is relative to where it started us.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

# One CPU for the daemons, the relays and the load generator alike: on a small
# shared machine an unpinned run measures the scheduler (README.md, Conditions).
command -v taskset >/dev/null || { echo "error: taskset not found; cannot pin" >&2; exit 2; }
allowed="$(taskset -cp $$ | sed 's/.*: *//')"
cpu="${allowed%%[,-]*}"

mode=()
case "${1:-}" in
  compare | paper-digest | manifest) ;;
  *) [[ " $* " == *" --workload "* ]] || mode=(suite) ;;
esac
exec taskset -c "$cpu" "$target/release/benchmark" "${mode[@]}" "$@"
