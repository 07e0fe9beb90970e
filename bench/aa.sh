#!/usr/bin/env bash
# A/A noise floor: runs the whole suite twice on the same tree and compares
# the two reports with the benchmark's own bounds. Every row should read ok;
# a regressed row here is noise the bounds do not cover. Extra arguments go
# to both runs (for example --seconds 8). Run from anywhere:
#
#   bash bench/aa.sh
set -euo pipefail
run="$(dirname "$0")/run.sh"
out="$(cd "$(dirname "$0")/.." && pwd)/.bench_build"
mkdir -p "$out"
bash "$run" --out "$out/aa_a.json" "$@"
bash "$run" --out "$out/aa_b.json" "$@"
bash "$run" --compare "$out/aa_a.json" "$out/aa_b.json"
