#!/usr/bin/env sh
# check.sh — the full local gate, and everything in it is a build, a vet or a
# go test: build, go vet, charmvet (determinism & PUP-completeness rules, see
# DESIGN.md "Determinism rules"), the test suite under the race detector, the
# allocation pins and budgets once without it, one iteration of every
# in-package benchmark, the benchmark module's own suite, the cross-backend
# equivalence tests and the engine's suite at several GOMAXPROCS values, the
# telemetry-neutrality gate, the full figure registry on both engines, and the
# 60-seed multi-failure soak. CI runs exactly this.
#
# Nothing here measures (bench/ does: bash bench/run.sh) and nothing here
# writes inside the repository: run on a clean checkout, it ends with
# `git status --porcelain` empty. The engine-counter goldens, the heap
# budgets and the two fault-tolerance reports are ordinary tests
# (internal/apps/determinism, internal/chaos against its testdata/) and ride
# the go test lines below.
set -eux

cd "$(dirname "$0")/.."

# The promise above is checked, not assumed: whatever the tree looked like
# coming in is what it must look like going out.
porcelain_before="$(git status --porcelain)"

go build ./...
go vet ./...
# The committed baseline is empty; the flag is exercised here so the
# suppression path cannot rot. The -json run smokes the machine output.
go run ./cmd/charmvet -baseline charmvet.baseline ./...
go run ./cmd/charmvet -json ./... > /dev/null
# The timeout is for internal/chaos: ~6 min under the detector on 2 vCPUs (its
# FT golden alone is twelve campaigns on three backends), too near go test's
# 10 m default.
go test -race -timeout 20m ./...
# The allocation pins and the per-event heap budgets assert nothing under
# -race (sync.Pool drops Puts there, so they sit behind raceEnabled), and the
# full-size counter goldens are skipped under it: run both once without.
go test -count=1 -run 'Alloc|Golden' ./internal/charm/ ./internal/parsim/ ./internal/des/ ./internal/apps/determinism/ ./internal/projections/ ./internal/telemetry/
# The in-package benchmarks are otherwise only compiled (go vet): one
# iteration of each, so one that panics or no longer sets up fails here. A
# smoke, not a measurement — its output is discarded.
go test -run '^$' -bench . -benchtime 1x ./internal/charm/ ./internal/des/ ./internal/parsim/ ./internal/pup/ > /dev/null
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

# Full-registry cross-backend identity: every figure's table byte-identical
# on the sequential and parallel engines (SeqOnly figures 7/14 and the
# paper-scale Figure S skip with a recorded reason). Runs without -race —
# the sweep is minutes of simulation, and the race-flavored coverage of the
# same property is the CrossBackend loop above.
CHARMGO_FIGS_FULL=1 go test -count=1 -timeout 40m -run TestFigureCrossBackend ./internal/figures/

# Multi-failure soak: seeded fuzz plans (correlated crash pairs, predicted
# failures, crashes landing mid-recovery) at replication degree R=2 — every
# plan must either converge byte-identically or fail with a typed
# unrecoverable error. 60 seeds here; the -fuzz harness in
# internal/chaos/ft_multi_test.go explores unseeded.
CHARMGO_CHAOS_SOAK=60 go test -count=1 -run TestFuzzCampaignSoak ./internal/chaos/

if [ "$(git status --porcelain)" != "$porcelain_before" ]; then
	echo "check.sh: the gate changed the working tree:" >&2
	git status --porcelain >&2
	exit 1
fi
