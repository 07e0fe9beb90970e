#!/usr/bin/env sh
# check.sh — the full local gate: build, go vet, charmvet (determinism &
# PUP-completeness rules, see DESIGN.md "Determinism rules"), the test
# suite under the race detector, the benchmark module's own suite, the
# cross-backend equivalence tests at several GOMAXPROCS values, a smoke
# run of the parallel benchmark, and the chaos fault-injection soak. CI
# runs exactly this.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# The committed baseline is empty; the flag is exercised here so the
# suppression path cannot rot. The -json run smokes the machine output.
go run ./cmd/charmvet -baseline charmvet.baseline ./...
go run ./cmd/charmvet -json ./... > /dev/null
go test -race ./...
# The allocation pins assert nothing under -race (sync.Pool drops Puts
# there, so the counts are compiled out behind raceEnabled): run them once
# without it.
go test -count=1 -run 'Alloc' ./internal/charm/ ./internal/parsim/ ./internal/des/
# bench/ is its own module, invisible to the ./... above. Its smoke suite is
# what catches a renamed engine gauge or a cross-backend digest break in the
# repository benchmark (BENCHMARK.json).
(cd bench && go vet . && go test .)

# All three backends (sequential, conservative-parallel, optimistic) must
# produce bit-identical digests no matter how many host threads the phase
# workers are spread over — for the optimistic engine that covers
# speculation, rollback, and the commit pipeline. The projections suite
# holds the event-log flavor of the same guarantee: byte-identical traces
# across backends, pinned to their recorded sha256 (TestLogPinCrossBackend).
# The engine's own suite rides the same loop: its phase handoff is a
# lock-free claim protocol whose failure mode at one thread is a hang, not
# a wrong digest, and the default thread count never shows it.
for procs in 1 2 8; do
	GOMAXPROCS=$procs go test -race -count=1 -run 'CrossBackend' ./internal/apps/determinism/ ./internal/projections/
	GOMAXPROCS=$procs go test -race -count=1 ./internal/parsim/
done

# Telemetry gate: LeanMD/PDES/Stencil2D digests must be byte-identical with
# the telemetry probe attached vs detached on all three backends — the
# observability layer is strictly side-band, enforced under the race
# detector at both thread counts.
for procs in 1 8; do
	GOMAXPROCS=$procs go test -race -count=1 -run 'TelemetryNeutral' ./internal/telemetry/
done

scripts/bench.sh --smoke
# Time Warp smoke: three-backend PHOLD at low lookahead; exits nonzero if
# the backends' digests diverge.
scripts/bench.sh --optsim --smoke
# Replay smoke: the same run with sparse state saving (image every 4th
# speculated execution), so rollbacks take the restore + coast-forward
# path; exits nonzero on digest divergence. The deeper torture matrix
# (K=1/4/16/adaptive on three apps, forced cascades) runs under -race in
# the test suite above (internal/apps/determinism ReplayTorture).
go run ./cmd/parsimbench -backend optimistic -smoke -snap-interval 4

# Full-registry cross-backend identity: every figure's table byte-identical
# on the sequential and parallel engines (SeqOnly figures 7/14 and the
# paper-scale Figure S skip with a recorded reason). Runs without -race —
# the sweep is minutes of simulation, and the race-flavored coverage of the
# same property is the CrossBackend loop above.
CHARMGO_FIGS_FULL=1 go test -count=1 -timeout 40m -run TestFigureCrossBackend ./internal/figures/

# Memory-budget gate: re-run the 1k/8k/64k virtual-PE scale benchmark and
# compare allocs/event, bytes/event, steady-state allocs, live heap, and
# the nil-payload runtime allocs/event against the committed
# BENCH_scale.json. Memory metrics are host-independent and fail the gate
# at >20% over budget; events/sec only warns (it depends on the host).
scripts/bench.sh --gate

# Chaos soak: every campaign app survives its injected crashes with final
# values and state digests byte-identical to the failure-free run, on all
# three backends. The driver exits nonzero on any mismatch, unsurvived
# crash, or cross-backend divergence; the report is byte-deterministic.
go run ./cmd/chaos -out BENCH_chaos.json

# Multi-failure soak: seeded fuzz plans (correlated crash pairs, predicted
# failures, crashes landing mid-recovery) at replication degree R=2 — every
# plan must either converge byte-identically or fail with a typed
# unrecoverable error. 60 seeds here; the -fuzz harness in
# internal/chaos/ft_multi_test.go explores unseeded.
CHARMGO_CHAOS_SOAK=60 go test -count=1 -run TestFuzzCampaignSoak ./internal/chaos/

# Fault-tolerance bench: the replication-degree sweep and the
# evacuation-vs-rollback comparison; exits nonzero if any sweep cell's
# digests diverge from the failure-free run on any backend.
scripts/bench.sh --ft
