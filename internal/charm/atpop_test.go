package charm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"charmgo/internal/parsim"
)

// goid returns the calling goroutine's id, parsed from its stack header:
// slow, and only for telling the engine's driver from its helpers in tests.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// fxTally counts, over the sending deliveries of a run, where each phase
// ran and whether its send went into the PE's effect buffer.
type fxTally struct {
	atPop, atPopBuffered, atPopOffClock atomic.Int64 // phases the engine ran at their own pop
	helper, helperDirect                atomic.Int64 // phases a helper goroutine ran
}

// runPHOLDEffects runs newPHOLD's kernel and reports, for every delivery
// that sends, where its phase ran and whether its send was buffered, next
// to a digest of the run: every LP's state, the runtime's counters and the
// final virtual time.
func runPHOLDEffects(t *testing.T, backend string, workers int, slow bool) (string, *fxTally, parsim.HandoffStats) {
	t.Helper()
	tally := &fxTally{}
	driver := goid() // rt.Run drives the engine from this goroutine
	var rt *Runtime
	rt, arr := newPHOLD(backend, workers, slow, func(ctx *Ctx, buffered bool) {
		switch {
		case rt.par == nil:
		case rt.par.AtPop(rt.ShardOf(ctx.pe)):
			tally.atPop.Add(1)
			if buffered {
				tally.atPopBuffered.Add(1)
			}
			// At its pop the engine clock reads the delivery's own
			// timestamp. (On a helper this read would race the driver,
			// which -race reports.)
			if rt.Now() != ctx.start {
				tally.atPopOffClock.Add(1)
			}
		case goid() != driver:
			tally.helper.Add(1)
			if !buffered {
				tally.helperDirect.Add(1)
			}
		}
	})
	rt.Run()
	h := sha256.New()
	for i := 0; i < pholdLPs; i++ {
		h.Write(PackLive(arr, Idx1(i)))
	}
	fmt.Fprintf(h, "|%+v|%v", rt.Stats, rt.Now())
	var hand parsim.HandoffStats
	if rt.par != nil {
		hand = rt.par.HandoffStats()
	}
	return hex.EncodeToString(h.Sum(nil)), tally, hand
}

// TestAtPopPhasesApplyEffectsDirectly: on both parallel modes, a phase the
// driver runs at its own pop with no speculation open (an inline event, or
// a conservative launch the grain gate left unposted) applies its sends
// directly, as the sequential engine does, and appends nothing to its PE's
// effect buffer; a phase a helper runs buffers every send for its commit.
// With PHOLD's sub-microsecond handlers the gate shuts and almost every
// phase is at its pop; with spinning handlers at eight workers helpers run
// phases while the driver commits. Either way the run's digest is the
// sequential engine's.
// Run it under -race with GOMAXPROCS=8 (scripts/check.sh does): the flag a
// helper-run phase reads is written by the driver only while no helper can
// hold its shard.
func TestAtPopPhasesApplyEffectsDirectly(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	want, _, _ := runPHOLDEffects(t, "sequential", 1, false)
	wantSlow, _, _ := runPHOLDEffects(t, "sequential", 1, true)
	for _, backend := range []string{"parallel", "optimistic"} {
		for _, slow := range []bool{false, true} {
			name := fmt.Sprintf("%s/slow=%v", backend, slow)
			digest, tally, hand := runPHOLDEffects(t, backend, 8, slow)
			t.Logf("%s: %d phases at their pop (%d buffered), %d on helpers (%d direct); grain %.0f ns",
				name, tally.atPop.Load(), tally.atPopBuffered.Load(), tally.helper.Load(), tally.helperDirect.Load(), hand.GrainNs)
			if w := map[bool]string{false: want, true: wantSlow}[slow]; digest != w {
				t.Errorf("%s: digest %s, want the sequential engine's %s", name, digest, w)
			}
			if tally.atPop.Load() == 0 {
				t.Errorf("%s: no phase ran at its pop", name)
			}
			if n := tally.atPopBuffered.Load(); n != 0 {
				t.Errorf("%s: %d phases at their pop buffered their send", name, n)
			}
			if n := tally.atPopOffClock.Load(); n != 0 {
				t.Errorf("%s: %d phases read as at their pop while the clock was elsewhere", name, n)
			}
			if n := tally.helperDirect.Load(); n != 0 {
				t.Errorf("%s: %d helper-run phases applied their send directly", name, n)
			}
			if slow && tally.helper.Load() == 0 {
				t.Errorf("%s: no helper ran a phase: the open gate was not exercised", name)
			}
		}
	}
}
