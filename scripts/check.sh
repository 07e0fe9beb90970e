#!/usr/bin/env sh
# check.sh — the full local gate, and everything in it is a format check, a
# build, a vet or a go test: gofmt, build, go vet, the test suite under the
# race detector (charmvet's determinism & PUP-completeness rules ride it as
# TestCharmvetClean, see DESIGN.md "Determinism rules"; its CLI is tested in
# cmd/charmvet), the allocation pins and budgets once without it, a
# fixed-iteration smoke of the event-store and scheduler-queue fuzz targets,
# one iteration of every in-package benchmark, the benchmark module's own suite,
# the cross-backend equivalence tests and the engine's suite at several
# GOMAXPROCS values, the telemetry-neutrality gate, the full figure registry
# on both engines, and the 60-seed multi-failure soak. CI runs exactly this.
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

# Every Go file, bench/ included, is gofmt-clean.
test -z "$(gofmt -l .)"
go build ./...
go vet ./...
# The timeout is for internal/chaos: ~6 min under the detector on 2 vCPUs (its
# FT golden alone is twelve campaigns on three backends), too near go test's
# 10 m default.
go test -race -timeout 20m ./...
# The few allocation pins the race runtime's own allocations break (a helper
# goroutine's start, the instrumented slices.Grow) sit behind raceEnabled,
# and the full-size counter goldens are skipped under -race: run both once
# without.
go test -count=1 -run 'Alloc|Golden' ./internal/charm/ ./internal/parsim/ ./internal/des/ ./internal/apps/determinism/ ./internal/projections/ ./internal/telemetry/ ./internal/chaos/
# A runtime's message traffic is the same at one worker and at eight, with
# helpers taking phases while the driver commits: the shard free lists are
# race-free under the detector at eight threads. So is the at-pop flag: a
# phase the driver runs at its own pop applies its effects directly, one a
# helper runs buffers them, and the digest is the sequential engine's.
GOMAXPROCS=8 go test -race -count=1 -run 'TestMessageAllocationDeterministic|TestAtPopPhasesApplyEffectsDirectly' ./internal/charm/
# An adaptive round's allocations do not depend on when the collector runs:
# nothing the round recycles lives in a pool a collection empties.
GOGC=5 go test -count=1 -run 'AdaptiveRoundAllocs' ./internal/chaos/
# The event store against the reference heap engine: its seed corpus
# (internal/des/testdata/fuzz) and then a fixed number of fuzzed programs. A
# smoke, not a search: a failing input would be written under testdata/.
go test -run '^$' -fuzz '^FuzzCalendarMatchesHeap$' -fuzztime 5000x ./internal/des/
# The PE scheduler's sorted ring against a scan for the minimum (prio, seq),
# with rollback re-pushes, and its size against its peak occupancy.
go test -run '^$' -fuzz '^FuzzMsgQueueOrder$' -fuzztime 5000x ./internal/charm/
# The in-package benchmarks are otherwise only compiled (go vet): one
# iteration of each, so one that panics or no longer sets up fails here. A
# smoke, not a measurement — its output is discarded.
go test -run '^$' -bench . -benchtime 1x ./internal/apps/stencil/ ./internal/charm/ ./internal/des/ ./internal/parsim/ ./internal/pup/ > /dev/null
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
