#!/usr/bin/env bash
# Regenerates every experiment artefact into results/ at full fidelity.
# Takes a few minutes; pass --quick through for a fast smoke run, e.g.:
#   scripts/regenerate_results.sh --quick
# Set DYNVOTE_RESULTS_DIR to write somewhere other than results/ (e.g.
# a temp dir when timing a --quick run without clobbering the committed
# full-fidelity artefacts).
set -euo pipefail
cd "$(dirname "$0")/.."
RESULTS_DIR="${DYNVOTE_RESULTS_DIR:-results}"
mkdir -p "$RESULTS_DIR"
BINS=(table1 table2 table3 analytic_check reliability access_rate_sweep \
      witness_study weight_study ablation_lexicon \
      ci_calibration outage_causes p2p_study study)
for bin in "${BINS[@]}"; do
    echo ">>> $bin $*"
    cargo run --release -p dynvote-experiments --bin "$bin" -- "$@" \
        > "$RESULTS_DIR/$bin.txt"
done
echo "done; see $RESULTS_DIR/"
