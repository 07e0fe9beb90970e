package chaos

import (
	"errors"
	"strings"
	"testing"

	"charmgo/internal/apps/stencil"
	"charmgo/internal/charm"
	"charmgo/internal/ckpt"
	"charmgo/internal/des"
	"charmgo/internal/machine"
	"charmgo/internal/pup"
)

// TestHeartbeatRoundAllocs pins what one heartbeat round costs: P−1 ping
// events, its deadline and the next tick — no ack event — and the same
// small constant of allocations (the round record, its ack vector and the
// deadline's closure) at 8 PEs as at 128.
func TestHeartbeatRoundAllocs(t *testing.T) {
	var allocs [2]float64
	for i, pes := range []int{8, 128} {
		rt := charm.New(machine.New(machine.Testbed(pes)))
		c, err := Enable(rt, Plan{Faults: []Fault{{Kind: FaultCrash, At: 1e3, PE: 1}}}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		eng, period := rt.Engine(), c.det.period
		eng.RunUntil(period) // the first tick: its pings are in flight
		var events uint64
		allocs[i] = testing.AllocsPerRun(20, func() {
			before := eng.Executed()
			eng.RunUntil(eng.Now() + period)
			events = eng.Executed() - before
		})
		if want := uint64(pes + 1); events != want {
			t.Errorf("%d PEs: a period executed %d events, want %d (P−1 pings, the deadline, the next tick)", pes, events, want)
		}
		if allocs[i] > 3 {
			t.Errorf("%d PEs: a round allocates %v objects, want <= 3", pes, allocs[i])
		}
		if c.Err() != nil || len(c.Records) != 0 {
			t.Errorf("%d PEs: a live machine was reported: err %v, records %v", pes, c.Err(), c.Records)
		}
	}
	if allocs[0] != allocs[1] {
		t.Errorf("a round allocates %v objects at 8 PEs but %v at 128", allocs[0], allocs[1])
	}
}

// packCount counts the packing traversals of probe chares.
type packCount struct{ n int }

type probe struct {
	N int64
	c *packCount //pup:skip counter
}

func (p *probe) Pup(pp *pup.Pup) {
	if pp.Mode() == pup.Packing {
		p.c.n++
	}
	pp.Int64(&p.N)
}

// TestCheckpointDigestIsTheCut: a checkpoint packs each element once, in
// Capture, and stores that cut's digest, which is the live state's digest
// at that instant; StateDigest re-packs the live state.
func TestCheckpointDigestIsTheCut(t *testing.T) {
	const n = 12
	rt := charm.New(machine.New(machine.Testbed(4)))
	pc := &packCount{}
	arr := rt.DeclareArray("probes", func() charm.Chare { return &probe{c: pc} }, nil, charm.ArrayOpts{})
	for i := 0; i < n; i++ {
		arr.InsertOn(charm.Idx2(i, -i), &probe{N: int64(i * i), c: pc}, i%4)
	}
	c, err := Enable(rt, Plan{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.CheckpointNow()
	if pc.n != n {
		t.Errorf("CheckpointNow packed %d elements, want %d (one pack per element)", pc.n, n)
	}
	cut := c.mem.Snapshot().Digest()
	if c.ckptDigest != cut {
		t.Errorf("the checkpoint stored digest %.12s, its cut's is %.12s", c.ckptDigest, cut)
	}
	if live := StateDigest(rt); live != cut {
		t.Errorf("StateDigest %.12s right after CheckpointNow, the cut's %.12s", live, cut)
	}
	if pc.n != 2*n {
		t.Errorf("StateDigest packed %d elements, want %d", pc.n-n, n)
	}
}

// TestHeartbeatTimeoutBelowRoundTrip: a timeout a live PE's ack cannot beat
// is refused when the detector is armed, naming both values: with it the
// deadline would stop at the first live PE whose ack is late, a crashed PE
// would never be reported and the run would heartbeat forever. The
// accepted rows must end: the crash precedes the first cut, so with
// ErrNoCheckpoint.
func TestHeartbeatTimeoutBelowRoundTrip(t *testing.T) {
	for _, c := range []struct {
		name    string
		mach    machine.Config
		timeout des.Time
		reject  string
	}{
		{"cloud, campaign timeout", machine.Cloud(8), 1.5e-4,
			"heartbeat timeout 0.00015 s does not exceed the slowest ping+ack round trip 0.00045"},
		{"cloud, default timeout", machine.Cloud(8), 0, ""},
		{"testbed, campaign timeout", machine.Testbed(8), 1.5e-4, ""},
	} {
		rt := charm.New(machine.New(c.mach))
		app, err := stencil.New(rt, stencil.Config{GridN: 96, Chares: 8, Iters: 256})
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := Enable(rt, CrashPlan(1, 1, 8, 1e-3, 2e-3), Options{HeartbeatTimeout: c.timeout})
		if c.reject != "" {
			if err == nil || !strings.Contains(err.Error(), c.reject) {
				t.Errorf("%s: Enable returned %v, want an error containing %q", c.name, err, c.reject)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rt.Engine().At(1, func() {
			t.Errorf("%s: still running at t=1s with %d events pending", c.name, rt.Engine().Pending())
			rt.Engine().Stop()
		})
		app.Run()
		if !errors.Is(ctrl.Err(), ckpt.ErrNoCheckpoint) {
			t.Errorf("%s: controller error %v, want ErrNoCheckpoint", c.name, ctrl.Err())
		}
	}
}
