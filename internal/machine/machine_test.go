package machine

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestConfigNumPEs(t *testing.T) {
	c := Vesta(1024)
	if c.NumPEs() < 1024 {
		t.Fatalf("Vesta(1024) has %d PEs, want >= 1024", c.NumPEs())
	}
	if c.PEsPerNode != 16 {
		t.Fatalf("BG/Q PEs/node = %d, want 16", c.PEsPerNode)
	}
}

func TestNamedConfigsConstructible(t *testing.T) {
	for _, cfg := range []Config{
		Vesta(64), BlueWaters(64), Titan(64), Jaguar(64),
		Hopper(64), Stampede(64), Cloud(32), ThermalTestbed(8),
	} {
		m := New(cfg)
		if m.NumPEs() == 0 || m.NumNodes() == 0 {
			t.Fatalf("%s: empty machine", cfg.Name)
		}
		if m.NetDelay(0, m.NumPEs()-1, 100) <= 0 {
			t.Fatalf("%s: non-positive net delay", cfg.Name)
		}
	}
}

func TestComputeTimeScalesWithFrequency(t *testing.T) {
	m := New(ThermalTestbed(2))
	base := m.ComputeTime(0, 1.0)
	m.SetNodeFreq(0, 1.2)
	slow := m.ComputeTime(0, 1.0)
	if slow <= base {
		t.Fatalf("halving frequency did not slow compute: %v vs %v", slow, base)
	}
	ratio := float64(slow) / float64(base)
	if math.Abs(ratio-2.0) > 1e-9 {
		t.Fatalf("2.4GHz→1.2GHz should double time, ratio %v", ratio)
	}
}

func TestInterferenceSlowsPE(t *testing.T) {
	m := New(Cloud(8))
	base := m.ComputeTime(3, 1.0)
	m.SetInterference(3, 0.5)
	slow := m.ComputeTime(3, 1.0)
	if math.Abs(float64(slow)/float64(base)-2.0) > 1e-9 {
		t.Fatalf("50%% interference should double time: %v vs %v", slow, base)
	}
	other := m.ComputeTime(2, 1.0)
	if other != base {
		t.Fatal("interference leaked to another PE")
	}
}

func TestInterferenceRangeChecked(t *testing.T) {
	m := New(Cloud(8))
	defer func() {
		if recover() == nil {
			t.Fatal("interference of 1.0 should panic")
		}
	}()
	m.SetInterference(0, 1.0)
}

func TestIntraNodeCheaperThanInterNode(t *testing.T) {
	m := New(Vesta(64)) // 4 nodes of 16
	intra := m.NetDelay(0, 1, 1024)
	inter := m.NetDelay(0, 63, 1024)
	if intra >= inter {
		t.Fatalf("intra-node delay %v should be < inter-node %v", intra, inter)
	}
}

func TestNetDelayGrowsWithSize(t *testing.T) {
	m := New(Stampede(64))
	small := m.NetDelay(0, 40, 8)
	big := m.NetDelay(0, 40, 1<<20)
	if big <= small {
		t.Fatalf("1MB message (%v) should cost more than 8B (%v)", big, small)
	}
}

func TestHopsSymmetricAndZeroOnNode(t *testing.T) {
	m := New(Vesta(512))
	if m.Hops(0, 5) != 0 {
		t.Fatal("same-node PEs should be 0 hops apart")
	}
	for _, pair := range [][2]int{{0, 100}, {17, 311}, {5, 501}} {
		a, b := pair[0], pair[1]
		if m.Hops(a, b) != m.Hops(b, a) {
			t.Fatalf("hops not symmetric for %d,%d", a, b)
		}
	}
}

func TestHopsTriangleInequality(t *testing.T) {
	m := New(Vesta(1024))
	f := func(a, b, c uint16) bool {
		p := m.NumPEs()
		x, y, z := int(a)%p, int(b)%p, int(c)%p
		return m.Hops(x, z) <= m.Hops(x, y)+m.Hops(y, z)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTorusWraparound(t *testing.T) {
	// 8x1x1 torus: node 0 to node 7 is 1 hop around the ring, not 7.
	cfg := Config{Name: "ring", NumNodes: 8, PEsPerNode: 1, TorusDims: []int{8, 1, 1},
		Alpha: 1e-6, Beta: 1e-9, PerHop: 1e-7}
	m := New(cfg)
	if h := m.Hops(0, 7); h != 1 {
		t.Fatalf("ring wraparound hops = %d, want 1", h)
	}
	if h := m.Hops(0, 4); h != 4 {
		t.Fatalf("ring antipode hops = %d, want 4", h)
	}
}

func TestDVFSSnapsToLevels(t *testing.T) {
	m := New(ThermalTestbed(4))
	m.SetNodeFreq(2, 1.95)
	got := m.Node(2).freqGHz
	if got != 1.8 && got != 2.1 {
		t.Fatalf("freq %v not snapped to a DVFS level", got)
	}
	m.SetNodeFreq(2, 0.1)
	if m.Node(2).freqGHz != 1.2 {
		t.Fatalf("freq below range should clamp to 1.2, got %v", m.Node(2).freqGHz)
	}
}

func TestStepNodeFreq(t *testing.T) {
	m := New(ThermalTestbed(1))
	m.SetNodeFreq(0, 2.4)
	if f := m.StepNodeFreq(0, -1); f != 2.1 {
		t.Fatalf("step down from 2.4 gave %v, want 2.1", f)
	}
	if f := m.StepNodeFreq(0, +1); f != 2.4 {
		t.Fatalf("step up gave %v, want 2.4", f)
	}
	if f := m.StepNodeFreq(0, +1); f != 2.4 {
		t.Fatalf("step above top should clamp, got %v", f)
	}
	for i := 0; i < 10; i++ {
		m.StepNodeFreq(0, -1)
	}
	if f := m.Node(0).freqGHz; f != 1.2 {
		t.Fatalf("repeated step down should clamp at 1.2, got %v", f)
	}
}

func TestThermalHeatsUnderLoadCoolsIdle(t *testing.T) {
	m := New(ThermalTestbed(1))
	n := m.Node(0)
	n.Utilization = 1.0
	start := n.TempC()
	for i := 0; i < 600; i++ {
		m.StepThermal(1.0)
	}
	hot := n.TempC()
	if hot <= start+5 {
		t.Fatalf("fully loaded chip did not heat: %v -> %v", start, hot)
	}
	n.Utilization = 0
	for i := 0; i < 3600; i++ {
		m.StepThermal(1.0)
	}
	if n.TempC() >= hot-5 {
		t.Fatalf("idle chip did not cool: %v -> %v", hot, n.TempC())
	}
	if m.HottestEver() < hot-1e-9 {
		t.Fatalf("HottestEver %v below observed %v", m.HottestEver(), hot)
	}
}

func TestThermalLowerFreqRunsCooler(t *testing.T) {
	steady := func(freq float64) float64 {
		m := New(ThermalTestbed(1))
		m.SetNodeFreq(0, freq)
		m.Node(0).Utilization = 1.0
		for i := 0; i < 5000; i++ {
			m.StepThermal(1.0)
		}
		return m.Node(0).TempC()
	}
	if steady(1.2) >= steady(2.4) {
		t.Fatal("chip at 1.2GHz should settle cooler than at 2.4GHz")
	}
}

func TestCacheFactor(t *testing.T) {
	m := New(Hopper(24)) // one node, 36MB cache
	if f := m.CacheFactor(1<<20, 24); f != 1 {
		t.Fatalf("in-cache working set penalized: %v", f)
	}
	spill := m.CacheFactor(12<<20, 24) // 12MB vs 1.5MB share
	if spill <= 1.2 {
		t.Fatalf("spilling working set not penalized: %v", spill)
	}
	if spill > m.Config().CacheMissFactor {
		t.Fatalf("penalty %v exceeds miss factor", spill)
	}
	// Monotone in working-set size.
	if m.CacheFactor(24<<20, 24) < spill {
		t.Fatal("larger working set should not be cheaper")
	}
}

func TestCacheFactorDisabled(t *testing.T) {
	m := New(Config{NumNodes: 1, PEsPerNode: 1, Alpha: 1e-6, Beta: 1e-9})
	if f := m.CacheFactor(1<<30, 1); f != 1 {
		t.Fatalf("machine without cache model should return 1, got %v", f)
	}
}

func TestSampleUtilization(t *testing.T) {
	m := New(ThermalTestbed(2)) // 2 nodes x 4 PEs
	for i := 0; i < 4; i++ {
		m.PE(i).BusyTime = 5 // node 0 PEs fully busy over a 5s window
	}
	mean := m.SampleUtilization(5)
	if math.Abs(m.Node(0).Utilization-1.0) > 1e-9 {
		t.Fatalf("node0 utilization %v, want 1", m.Node(0).Utilization)
	}
	if m.Node(1).Utilization != 0 {
		t.Fatalf("node1 utilization %v, want 0", m.Node(1).Utilization)
	}
	if math.Abs(mean-0.5) > 1e-9 {
		t.Fatalf("mean utilization %v, want 0.5", mean)
	}
	// Second sample over an idle window reads zero.
	if m.SampleUtilization(5) != 0 {
		t.Fatal("second idle window should sample 0")
	}
}

func TestNodeCoordsRoundTrip(t *testing.T) {
	dims := []int{4, 3, 5}
	seen := map[[3]int]bool{}
	for id := 0; id < 60; id++ {
		c := nodeCoords(id, dims)
		key := [3]int{c[0], c[1], c[2]}
		if seen[key] {
			t.Fatalf("duplicate coords %v for id %d", c, id)
		}
		seen[key] = true
		for d := range dims {
			if c[d] < 0 || c[d] >= dims[d] {
				t.Fatalf("coord %v out of range for dims %v", c, dims)
			}
		}
	}
}

func TestCloudSlowerThanSupercomputer(t *testing.T) {
	cloud := New(Cloud(32))
	super := New(Stampede(32))
	cd := cloud.NetDelay(0, 31, 4096)
	sd := super.NetDelay(0, 31, 4096)
	if cd < 8*sd {
		t.Fatalf("cloud net (%v) should be ~10x worse than InfiniBand (%v)", cd, sd)
	}
}

func BenchmarkNetDelay(b *testing.B) {
	m := New(Vesta(4096))
	for i := 0; i < b.N; i++ {
		m.NetDelay(i%4096, (i*7)%4096, 512)
	}
}

func TestNICSerialization(t *testing.T) {
	cfg := Testbed(4)
	cfg.NICBandwidth = 1e9 // 1 GB/s egress
	cfg.PacketOverheadBytes = 0
	cfg = cfg.withDefaults()
	m := New(cfg)
	// Three 1MB messages from PE 0 at t=0 serialize at the NIC.
	var arrivals []float64
	for i := 0; i < 3; i++ {
		arrivals = append(arrivals, float64(m.Transmit(0, 1, 1<<20, 0)))
	}
	occupancy := float64(1<<20+cfg.PacketOverheadBytes) / 1e9
	for i := 1; i < 3; i++ {
		gap := arrivals[i] - arrivals[i-1]
		if gap < occupancy*0.99 || gap > occupancy*1.01 {
			t.Fatalf("message %d gap %v, want ~%v (NIC occupancy)", i, gap, occupancy)
		}
	}
	// A message from a different node does not queue behind PE 0's NIC.
	other := float64(m.Transmit(2, 1, 1<<20, 0))
	if other >= arrivals[2] {
		t.Fatalf("different node queued behind PE 0's NIC: %v vs %v", other, arrivals[2])
	}
}

func TestNICDisabledMatchesNetDelay(t *testing.T) {
	m := New(Testbed(4))
	got := m.Transmit(0, 3, 4096, 1.5)
	want := 1.5 + m.NetDelay(0, 3, 4096)
	if got != want {
		t.Fatalf("Transmit without NIC limit: %v, want %v", got, want)
	}
}

func TestNICIntraNodeBypasses(t *testing.T) {
	cfg := Vesta(32)       // 2 nodes of 16
	cfg.NICBandwidth = 1e6 // absurdly slow NIC
	m := New(cfg)
	// Intra-node transfer ignores the NIC entirely.
	local := m.Transmit(0, 1, 1<<20, 0)
	if float64(local) > 0.01 {
		t.Fatalf("intra-node transfer hit the NIC: %v", local)
	}
}

func TestEnergyAccounting(t *testing.T) {
	m := New(ThermalTestbed(2))
	m.Node(0).Utilization = 1.0
	m.Node(1).Utilization = 0.0
	for i := 0; i < 100; i++ {
		m.StepThermal(1.0)
	}
	busy, idle := m.Node(0).energyJ, m.Node(1).energyJ
	if busy <= idle {
		t.Fatalf("busy node energy %v should exceed idle %v", busy, idle)
	}
	// Idle node still burns static power.
	wantIdle := m.Config().Thermal.StaticW * 100
	if math.Abs(idle-wantIdle) > 1e-9 {
		t.Fatalf("idle energy %v, want %v (static only)", idle, wantIdle)
	}
	if m.TotalEnergyJ() != busy+idle {
		t.Fatal("TotalEnergyJ mismatch")
	}
	// Throttled chip under the same load draws less power.
	m2 := New(ThermalTestbed(1))
	m2.SetNodeFreq(0, 1.2)
	m2.Node(0).Utilization = 1.0
	m2.StepThermal(100)
	if m2.Node(0).energyJ >= busy {
		t.Fatalf("DVFS-throttled node drew %v J vs %v J at full clock",
			m2.Node(0).energyJ, busy)
	}
}

// TestParseBackend walks every accepted Config.Backend spelling — canonical
// names, aliases, and the empty default — and a few that must be rejected
// with an error naming what is accepted.
func TestParseBackend(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"", "sequential"},
		{"sequential", "sequential"},
		{"heap", ""}, // the reference engine is a test oracle, not a backend
		{"parallel", "parallel"},
		{"parsim", "parallel"},
		{"optimistic", "optimistic"},
		{"optsim", "optimistic"},
		{"bogus", ""},
		{"Parallel", ""},
		{"optimistic ", ""},
	} {
		got, err := ParseBackend(tc.in)
		if got != tc.want || (err == nil) != (tc.want != "") {
			t.Errorf("ParseBackend(%q) = %q, %v; want %q", tc.in, got, err, tc.want)
		}
		if err != nil && !strings.Contains(err.Error(), BackendNames()) {
			t.Errorf("ParseBackend(%q) error %q does not list the accepted names %q", tc.in, err, BackendNames())
		}
	}
	if want := "sequential, parallel (alias parsim), optimistic (alias optsim)"; BackendNames() != want {
		t.Errorf("BackendNames() = %q, want %q", BackendNames(), want)
	}
}

func TestValidateSpeculation(t *testing.T) {
	for _, tc := range []struct {
		k    int
		want string // a fragment of the error, "" for accepted
	}{
		{0, ""},
		{1, ""},
		{64, ""},
		{-3, "snap interval -3 out of range (want 0 = adaptive, 1 = eager, or K >= 2)"},
	} {
		err := Config{SnapInterval: tc.k}.ValidateSpeculation()
		if (err == nil) != (tc.want == "") || err != nil && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("SnapInterval %d: error %v, want %q", tc.k, err, tc.want)
		}
	}
}

// TestCachedSpeedMatchesSpeed holds the speed the machine caches per PE to
// the expression it caches: after every SetNodeFreq, StepNodeFreq and
// SetInterference, on a DVFS machine and on one without a level table,
// ComputeTime(pe, w) is w / PE(pe).Speed(BaseFreqGHz) bit for bit on every
// PE, and so is the load meter's Speed(pe).
func TestCachedSpeedMatchesSpeed(t *testing.T) {
	works := []float64{1, 3e-7, 0.123456789, 2e-6}
	for _, cfg := range []Config{ThermalTestbed(3), Cloud(8)} {
		m := New(cfg)
		base := m.Config().BaseFreqGHz
		check := func(op string) {
			t.Helper()
			for pe := 0; pe < m.NumPEs(); pe++ {
				s := m.PE(pe).Speed(base)
				if math.Float64bits(m.Speed(pe)) != math.Float64bits(s) {
					t.Fatalf("%s after %s: PE %d caches speed %v, want %v", cfg.Name, op, pe, m.Speed(pe), s)
				}
				for _, w := range works {
					if got, want := m.ComputeTime(pe, w), w/s; math.Float64bits(float64(got)) != math.Float64bits(want) {
						t.Fatalf("%s after %s: ComputeTime(%d, %v) = %v, want %v", cfg.Name, op, pe, w, got, want)
					}
				}
			}
		}
		check("New")
		x := uint64(12345) // a fixed LCG: the same sequence of changes every run
		next := func(n int) int {
			x = x*6364136223846793005 + 1442695040888963407
			return int(x>>33) % n
		}
		for i := 0; i < 200; i++ {
			switch next(3) {
			case 0:
				n, f := next(m.NumNodes()), 0.8+float64(next(200))/100
				m.SetNodeFreq(n, f)
				check(fmt.Sprintf("SetNodeFreq(%d, %v)", n, f))
			case 1:
				n, dir := next(m.NumNodes()), 2*next(2)-1
				m.StepNodeFreq(n, dir)
				check(fmt.Sprintf("StepNodeFreq(%d, %d)", n, dir))
			default:
				pe, frac := next(m.NumPEs()), float64(next(90))/100
				m.SetInterference(pe, frac)
				check(fmt.Sprintf("SetInterference(%d, %v)", pe, frac))
			}
		}
	}
}
