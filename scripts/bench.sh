#!/usr/bin/env sh
# bench.sh — parallel-backend benchmark harness.
#
# Default mode runs the full Stencil2D benchmark (256 virtual PEs) on both
# backends, verifies the digests are bit-identical, and writes the committed
# BENCH_parsim.json (ns/op per backend, speedup, GOMAXPROCS, host CPU count,
# and the engine's parallelism counters — see DESIGN.md "Parallel backend").
#
#   scripts/bench.sh            # full run, rewrites BENCH_parsim.json
#   scripts/bench.sh --smoke    # small config, no file written; CI gate
#   scripts/bench.sh --workers 4
#   scripts/bench.sh --scale    # 1k/8k/64k virtual PEs, rewrites BENCH_scale.json
#   scripts/bench.sh --gate     # re-run scale configs, fail on >20% regression
#                               # against the committed BENCH_scale.json budgets
#                               # (memory metrics gate hard; events/sec warns),
#                               # then re-run the optimistic PHOLD benchmark and
#                               # fail on snapshot-churn or heap-traffic
#                               # regression against the committed
#                               # BENCH_optsim.json (snapshots taken, snapshot
#                               # bytes, and the optimistic run's allocations
#                               # and bytes per event gate hard — properties
#                               # of the code, not wall-clock)
#   scripts/bench.sh --optsim   # three-backend PHOLD at low lookahead,
#                               # rewrites BENCH_optsim.json (speculation
#                               # stats, rollback ratio, wasted work, and
#                               # state-saving counters: snapshot_bytes,
#                               # snapshots_avoided, replays, adaptive K)
#   scripts/bench.sh --optsim --smoke  # small config, no file written
#   scripts/bench.sh --optsim --sweep  # fixed K=1/4/16 vs adaptive sweep,
#                                      # no file written (EXPERIMENTS.md table)
#   scripts/bench.sh --ft       # fault-tolerance bench: replication-degree
#                               # sweep (R=1..3) plus evacuation-vs-rollback
#                               # cost per app, rewrites BENCH_ft.json; exits
#                               # nonzero if any cell's digests diverge
set -eu

cd "$(dirname "$0")/.."

smoke=0
scale=0
gate=0
optsim=0
sweep=0
ft=0
workers=8
while [ $# -gt 0 ]; do
	case "$1" in
	--smoke) smoke=1 ;;
	--scale) scale=1 ;;
	--gate) gate=1 ;;
	--optsim) optsim=1 ;;
	--sweep) sweep=1 ;;
	--ft) ft=1 ;;
	--workers)
		shift
		workers="$1"
		;;
	*)
		echo "usage: scripts/bench.sh [--smoke] [--scale] [--gate] [--optsim [--sweep]] [--ft] [--workers N]" >&2
		exit 2
		;;
	esac
	shift
done

if [ "$ft" = 1 ]; then
	exec go run ./cmd/chaos -ft -out BENCH_ft.json
fi

if [ "$optsim" = 1 ]; then
	if [ "$sweep" = 1 ]; then
		if [ "$smoke" = 1 ]; then
			exec go run ./cmd/parsimbench -backend optimistic -snap-sweep -smoke -workers "$workers"
		fi
		exec go run ./cmd/parsimbench -backend optimistic -snap-sweep -workers "$workers"
	fi
	if [ "$smoke" = 1 ]; then
		exec go run ./cmd/parsimbench -backend optimistic -smoke -workers "$workers"
	fi
	exec go run ./cmd/parsimbench -backend optimistic -out BENCH_optsim.json -workers "$workers"
fi
if [ "$gate" = 1 ]; then
	go run ./cmd/parsimbench -gate BENCH_scale.json
	exec go run ./cmd/parsimbench -gate-optsim BENCH_optsim.json -workers "$workers"
fi
if [ "$scale" = 1 ]; then
	exec go run ./cmd/parsimbench -scale -out BENCH_scale.json
fi
if [ "$smoke" = 1 ]; then
	exec go run ./cmd/parsimbench -smoke -workers "$workers"
fi
exec go run ./cmd/parsimbench -out BENCH_parsim.json -workers "$workers"
