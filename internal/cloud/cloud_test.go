package cloud

import (
	"testing"

	"charmgo/internal/charm"
	"charmgo/internal/machine"
)

func TestSlowNode(t *testing.T) {
	rt := charm.New(machine.New(machine.Cloud(8))) // 2 nodes x 4 PEs
	SlowNode(rt, 1, 0.7)
	m := rt.Machine()
	// Node 1 holds PEs 4–7; a PE's speed is its node's clock over the base.
	base := m.Config().BaseFreqGHz
	if got, want := m.Speed(4), base*0.7/base; got != want {
		t.Fatalf("slowed PE speed %v, want %v", got, want)
	}
	if m.Speed(0) != 1 {
		t.Fatal("wrong node slowed")
	}
}

func TestInjectEpisode(t *testing.T) {
	rt := charm.New(machine.New(machine.Cloud(8)))
	Inject(rt, Interference{PE: 2, Start: 1.0, End: 3.0, Fraction: 0.5})
	m := rt.Machine()
	eng := rt.Engine()
	eng.RunUntil(0.5)
	if m.PE(2).Interference() != 0 {
		t.Fatal("interference started early")
	}
	eng.RunUntil(2.0)
	if m.PE(2).Interference() != 0.5 {
		t.Fatal("interference did not start")
	}
	eng.RunUntil(4.0)
	if m.PE(2).Interference() != 0 {
		t.Fatal("interference did not end")
	}
}

func TestPersistentInterference(t *testing.T) {
	rt := charm.New(machine.New(machine.Cloud(4)))
	Inject(rt, Interference{PE: 0, Start: 1.0, Fraction: 0.3})
	rt.Engine().RunUntil(100)
	if rt.Machine().PE(0).Interference() != 0.3 {
		t.Fatal("persistent interference ended")
	}
}

func TestInterfereNodeHitsAllPEs(t *testing.T) {
	rt := charm.New(machine.New(machine.Cloud(8))) // 4 PEs/node
	InterfereNode(rt, 1, 0.5, 2.0, 0.4)
	rt.Engine().RunUntil(1.0)
	m := rt.Machine()
	for pe := 4; pe < 8; pe++ {
		if m.PE(pe).Interference() != 0.4 {
			t.Fatalf("PE %d missed node interference", pe)
		}
	}
	for pe := 0; pe < 4; pe++ {
		if m.PE(pe).Interference() != 0 {
			t.Fatalf("PE %d wrongly interfered", pe)
		}
	}
}
