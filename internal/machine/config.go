// Package machine models the parallel machine the runtime executes on:
// nodes, processing elements (PEs), DVFS frequency states, an α–β–per-hop
// network on an N-dimensional torus, per-message software overheads, cache
// capacity, and a lumped-capacitance thermal model.
//
// All times are virtual seconds (des.Time). The model parameters for the
// named configurations are chosen so that the relative behaviour of the
// machines in the paper (Blue Gene/Q, Cray XE6/XK7, Hopper, Stampede, and a
// commodity-Ethernet cloud) is preserved: the cloud has ~10× worse latency
// and bandwidth than the supercomputers, BG/Q trades clock speed for scale,
// and so on.
package machine

import (
	"fmt"
	"strings"
)

// ThermalParams describes the lumped RC thermal model of one chip.
// Temperature evolves as
//
//	dT/dt = (power(f, util) - (T - ambient)/resistance) / capacitance
//
// with power(f, util) = staticW + dynamicW * (f/base)^3 * util.
type ThermalParams struct {
	AmbientC     float64 // machine-room air temperature, °C (set by CRAC)
	StaticW      float64 // leakage power, watts
	DynamicW     float64 // dynamic power at base frequency and 100% util
	ResistanceCW float64 // thermal resistance, °C per watt
	CapacitanceJ float64 // thermal capacitance, joules per °C
	InitialC     float64 // starting chip temperature
}

// DefaultThermal matches the Fig 4 setting: CRAC at 74°F ≈ 23.3°C and chips
// that settle in the mid-60s °C when uncontrolled.
func DefaultThermal() ThermalParams {
	return ThermalParams{
		AmbientC:     23.3,
		StaticW:      20,
		DynamicW:     75,
		ResistanceCW: 0.55,
		CapacitanceJ: 90,
		InitialC:     40,
	}
}

// Config is the full description of a machine.
type Config struct {
	Name       string
	NumNodes   int
	PEsPerNode int

	// BaseFreqGHz is the nominal clock. Work is expressed in seconds at
	// this clock; a PE running at frequency f finishes nominal work w in
	// w * BaseFreqGHz / f seconds.
	BaseFreqGHz float64
	// DVFSLevelsGHz are the selectable frequencies, ascending. Empty means
	// DVFS is unavailable and the chip is pinned to BaseFreqGHz.
	DVFSLevelsGHz []float64

	// Network model: a message of b bytes travelling h node-hops costs
	// Alpha + b*Beta + h*PerHop seconds of latency. Intra-node messages
	// cost AlphaLocal + b*BetaLocal.
	Alpha      float64
	Beta       float64
	PerHop     float64
	AlphaLocal float64
	BetaLocal  float64

	// Per-message CPU time consumed on the sending and receiving PE.
	// This is what TRAM amortizes.
	SendOverhead float64
	RecvOverhead float64
	// Node-local messages bypass the NIC/network stack and pay these
	// (much smaller) overheads instead; defaults are 15% of the remote
	// values.
	SendOverheadLocal float64
	RecvOverheadLocal float64

	// TorusDims is the node-level torus; the product must be >= NumNodes.
	// Nodes are laid out in row-major order.
	TorusDims []int

	// CachePerNodeBytes is the last-level cache capacity shared by the
	// node's PEs. CacheMissFactor is the compute-time multiplier applied
	// when a working set does not fit in its cache share.
	CachePerNodeBytes int64
	CacheMissFactor   float64

	// NICBandwidth, when positive, serializes each node's outgoing
	// traffic through its network interface at this many bytes/s:
	// concurrent messages from one node queue behind each other instead
	// of enjoying infinite wire parallelism. PacketOverheadBytes is
	// charged per message on the wire (headers/framing) — the occupancy
	// that fine-grained messaging wastes and aggregation recovers.
	NICBandwidth        float64
	PacketOverheadBytes int

	// Backend selects the event-engine implementation driving the
	// simulation: "" or "sequential" is the single-threaded engine of
	// internal/des; "parallel" (alias "parsim") is the parallel engine of
	// internal/parsim in conservative mode, which shards the virtual PEs by
	// node and uses Alpha (the minimum cross-node latency) as the lookahead
	// bound;
	// "optimistic" (alias "optsim") is the same engine in Time Warp mode,
	// which speculates past any lookahead and rolls back stragglers. All
	// produce bit-identical runs. ParseBackend is the one list of accepted
	// spellings.
	Backend string
	// ParallelWorkers caps the parallel backends' worker goroutines;
	// 0 means GOMAXPROCS.
	ParallelWorkers int
	// SnapInterval controls the optimistic backend's infrequent state
	// saving: an element is PUP-imaged only every SnapInterval-th
	// speculated execution, and a rollback coast-forwards from the last
	// image by replaying the committed deliveries in between. 0 (the
	// default) picks the interval adaptively from a snapshot-cost /
	// replay-cost model driven by the observed rollback rate, and also
	// lets the control-point system narrow the optimism window (unbounded
	// otherwise) under rollback storms; 1 restores eager per-execution
	// snapshots; K>=2 fixes the interval at K.
	SnapInterval int

	Thermal ThermalParams
}

// backends is the one list of Config.Backend names and their aliases.
var backends = []struct{ name, alias string }{
	{name: "sequential"},
	{name: "parallel", alias: "parsim"},
	{name: "optimistic", alias: "optsim"},
}

// BackendNames renders the accepted Config.Backend spellings, for flag help
// and error messages.
func BackendNames() string {
	var sb strings.Builder
	for i, b := range backends {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(b.name)
		if b.alias != "" {
			sb.WriteString(" (alias " + b.alias + ")")
		}
	}
	return sb.String()
}

// ParseBackend resolves a Config.Backend spelling — a canonical name, an
// alias, or "" for the default — to its canonical name. Everything that
// takes a backend name from a user validates it here, so an unknown name is
// a usage error at the flag, not a panic out of charm.New.
func ParseBackend(name string) (string, error) {
	if name == "" {
		return backends[0].name, nil
	}
	for _, b := range backends {
		if name == b.name || name == b.alias {
			return b.name, nil
		}
	}
	return "", fmt.Errorf("unknown backend %q (want %s)", name, BackendNames())
}

// ValidateSpeculation reports the optimistic backend's settings that lie
// outside their accepted range. Like a backend name, whatever takes them
// from a user checks them here, so a negative value is a usage error at the
// flag — not a silent "adaptive", and not a panic out of charm.New.
func (c Config) ValidateSpeculation() error {
	if c.SnapInterval < 0 {
		return fmt.Errorf("snap interval %d out of range (want 0 = adaptive, 1 = eager, or K >= 2)", c.SnapInterval)
	}
	return nil
}

// NumPEs returns the machine's total PE count.
func (c Config) NumPEs() int { return c.NumNodes * c.PEsPerNode }

func defaultTorus(nodes int) []int {
	// Factor into a roughly-cubic 3D torus.
	x := 1
	for x*x*x < nodes {
		x++
	}
	for y := x; ; y++ {
		if x*x*y >= nodes {
			return []int{x, x, y}
		}
	}
}

func (c Config) withDefaults() Config {
	if c.PEsPerNode == 0 {
		c.PEsPerNode = 1
	}
	if c.NumNodes == 0 {
		c.NumNodes = 1
	}
	if c.BaseFreqGHz == 0 {
		c.BaseFreqGHz = 2.0
	}
	if len(c.TorusDims) == 0 {
		c.TorusDims = defaultTorus(c.NumNodes)
	}
	if c.AlphaLocal == 0 {
		c.AlphaLocal = c.Alpha / 10
		if c.AlphaLocal > 2e-6 {
			c.AlphaLocal = 2e-6 // shared memory, not the wire
		}
	}
	if c.BetaLocal == 0 {
		c.BetaLocal = 1.0 / 8e9 // memcpy bandwidth
	}
	if c.SendOverheadLocal == 0 {
		c.SendOverheadLocal = c.SendOverhead * 0.15
	}
	if c.RecvOverheadLocal == 0 {
		c.RecvOverheadLocal = c.RecvOverhead * 0.15
	}
	if c.NICBandwidth > 0 && c.PacketOverheadBytes == 0 {
		c.PacketOverheadBytes = 64
	}
	if c.CacheMissFactor == 0 {
		c.CacheMissFactor = 1
	}
	if c.Thermal == (ThermalParams{}) {
		c.Thermal = DefaultThermal()
	}
	return c
}

// Vesta models an IBM Blue Gene/Q rack group (Figs 8, 9, 10): many slow
// cores, a low-latency 5D-torus-class network (modelled as 3D), small cache
// share per PE.
func Vesta(numPEs int) Config {
	return Config{
		Name:              "Vesta-BGQ",
		NumNodes:          ceilDiv(numPEs, 16),
		PEsPerNode:        16,
		BaseFreqGHz:       1.6,
		Alpha:             2.2e-6,
		Beta:              1.0 / (1.8e9),
		PerHop:            45e-9,
		SendOverhead:      0.9e-6,
		RecvOverhead:      0.9e-6,
		CachePerNodeBytes: 32 << 20,
		CacheMissFactor:   2.0,
	}.withDefaults()
}

// BlueWaters models a Cray XE6 (Figs 12, 13).
func BlueWaters(numPEs int) Config {
	return Config{
		Name:              "BlueWaters-XE6",
		NumNodes:          ceilDiv(numPEs, 16),
		PEsPerNode:        16,
		BaseFreqGHz:       2.3,
		Alpha:             1.5e-6,
		Beta:              1.0 / (5.8e9),
		PerHop:            100e-9,
		SendOverhead:      0.7e-6,
		RecvOverhead:      0.7e-6,
		CachePerNodeBytes: 24 << 20,
		CacheMissFactor:   2.2,
	}.withDefaults()
}

// Titan models a Cray XK7 (CPU only, Fig 11).
func Titan(numPEs int) Config {
	c := BlueWaters(numPEs)
	c.Name = "Titan-XK7"
	c.BaseFreqGHz = 2.2
	c.Alpha = 1.4e-6
	return c
}

// Jaguar models a Cray XT5 (Fig 11): older interconnect, slower clock.
func Jaguar(numPEs int) Config {
	return Config{
		Name:              "Jaguar-XT5",
		NumNodes:          ceilDiv(numPEs, 12),
		PEsPerNode:        12,
		BaseFreqGHz:       2.6,
		Alpha:             4.5e-6,
		Beta:              1.0 / (3.0e9),
		PerHop:            180e-9,
		SendOverhead:      1.6e-6,
		RecvOverhead:      1.6e-6,
		CachePerNodeBytes: 12 << 20,
		CacheMissFactor:   2.2,
	}.withDefaults()
}

// Hopper models the NERSC Cray XE6 used for LULESH (Fig 14). The cache
// numbers follow the paper: ~36 MB of combined L2+L3 per node.
func Hopper(numPEs int) Config {
	return Config{
		Name:              "Hopper-XE6",
		NumNodes:          ceilDiv(numPEs, 24),
		PEsPerNode:        24,
		BaseFreqGHz:       2.1,
		Alpha:             1.6e-6,
		Beta:              1.0 / (5.0e9),
		PerHop:            110e-9,
		SendOverhead:      0.8e-6,
		RecvOverhead:      0.8e-6,
		CachePerNodeBytes: 36 << 20,
		CacheMissFactor:   2.8,
	}.withDefaults()
}

// Stampede models the TACC Sandy Bridge + InfiniBand cluster (Figs 5, 15).
func Stampede(numPEs int) Config {
	return Config{
		Name:              "Stampede",
		NumNodes:          ceilDiv(numPEs, 16),
		PEsPerNode:        16,
		BaseFreqGHz:       2.7,
		Alpha:             2.5e-6,
		Beta:              1.0 / (6.0e9),
		PerHop:            90e-9,
		SendOverhead:      0.8e-6,
		RecvOverhead:      0.8e-6,
		CachePerNodeBytes: 40 << 20,
		CacheMissFactor:   2.0,
	}.withDefaults()
}

// Cloud models the kvm/1GigE private cloud of §IV-F: commodity Ethernet
// with roughly an order of magnitude worse latency and bandwidth.
func Cloud(numPEs int) Config {
	return Config{
		Name:              "Cloud-1GigE",
		NumNodes:          ceilDiv(numPEs, 4),
		PEsPerNode:        4,
		BaseFreqGHz:       2.67,
		Alpha:             150e-6, // virtualized TCP over shared 1GigE
		Beta:              1.0 / (0.10e9),
		PerHop:            500e-9,
		SendOverhead:      6e-6,
		RecvOverhead:      6e-6,
		CachePerNodeBytes: 12 << 20,
		CacheMissFactor:   1.8,
	}.withDefaults()
}

// ThermalTestbed is the Fig 4 cluster: one-socket nodes with DVFS.
func ThermalTestbed(numNodes int) Config {
	levels := []float64{1.2, 1.5, 1.8, 2.1, 2.4}
	return Config{
		Name:          "ThermalTestbed",
		NumNodes:      numNodes,
		PEsPerNode:    4,
		BaseFreqGHz:   2.4,
		DVFSLevelsGHz: levels,
		Alpha:         20e-6,
		Beta:          1.0 / (1.0e9),
		PerHop:        300e-9,
		SendOverhead:  2e-6,
		RecvOverhead:  2e-6,
		Thermal:       DefaultThermal(),
	}.withDefaults()
}

// Testbed is a generic machine with exactly numPEs PEs (one per node),
// DVFS-free and InfiniBand-class; unit tests use it when they need precise
// PE counts.
func Testbed(numPEs int) Config {
	return Config{
		Name:         "Testbed",
		NumNodes:     numPEs,
		PEsPerNode:   1,
		BaseFreqGHz:  2.0,
		Alpha:        2e-6,
		Beta:         1.0 / (5.0e9),
		PerHop:       100e-9,
		SendOverhead: 0.8e-6,
		RecvOverhead: 0.8e-6,
	}.withDefaults()
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
