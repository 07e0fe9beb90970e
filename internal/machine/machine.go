package machine

import (
	"fmt"
	"math"

	"charmgo/internal/des"
)

// Node is one physical node: a chip with a frequency, a thermal state, and
// PEsPerNode processing elements.
type Node struct {
	ID      int
	coords  []int
	freqGHz float64
	tempC   float64
	// coolFactor scales the node's thermal resistance: packaging and
	// rack-position variation makes some chips run hotter than others
	// under identical load (the heterogeneity thermal-aware LB exploits).
	coolFactor float64
	// utilization in [0,1] is set by the runtime from the fraction of
	// recent time the node's PEs spent busy; the thermal model uses it.
	Utilization float64
	// maxTempC tracks the hottest temperature this node ever reached.
	maxTempC float64
	// energyJ integrates the node's power draw over StepThermal calls.
	energyJ float64
}

// TempC returns the node's current chip temperature.
func (n *Node) TempC() float64 { return n.tempC }

// PE is one processing element.
type PE struct {
	ID   int
	Node *Node
	// interference is the fraction of the PE's cycles stolen by external
	// load (cloud multi-tenancy); 0 means a dedicated PE.
	interference float64
	// BusyTime accumulates virtual seconds spent computing; used for
	// utilization sampling and LB background-load estimation.
	BusyTime des.Time
	// lastSample is the busy time at the previous utilization sample.
	lastSample des.Time
	// speed caches Speed(BaseFreqGHz); every writer of the node's frequency
	// or the PE's interference refreshes it (see Machine.resetSpeed).
	speed float64
}

// Interference returns the fraction of the PE stolen by external load.
//
//charmvet:unreached test oracle: the cloud package's tests read the injected fraction back through it
func (p *PE) Interference() float64 { return p.interference }

// Speed returns the PE's effective speed as a multiple of a dedicated PE at
// base frequency: (freq/base) * (1 - interference).
func (p *PE) Speed(baseGHz float64) float64 {
	return p.Node.freqGHz / baseGHz * (1 - p.interference)
}

// Machine instantiates a Config: it owns the PEs and nodes and converts
// abstract work and messages into virtual durations.
type Machine struct {
	cfg   Config
	pes   []*PE
	nodes []*Node
	// nicFreeAt is when each node's egress NIC next becomes free
	// (NICBandwidth model).
	nicFreeAt []des.Time
}

// New builds a machine from a configuration.
func New(cfg Config) *Machine {
	cfg = cfg.withDefaults()
	m := &Machine{cfg: cfg}
	m.nodes = make([]*Node, cfg.NumNodes)
	for i := range m.nodes {
		m.nodes[i] = &Node{
			ID:         i,
			coords:     nodeCoords(i, cfg.TorusDims),
			freqGHz:    cfg.BaseFreqGHz,
			tempC:      cfg.Thermal.InitialC,
			maxTempC:   cfg.Thermal.InitialC,
			coolFactor: 1,
		}
	}
	m.pes = make([]*PE, cfg.NumPEs())
	for i := range m.pes {
		m.pes[i] = &PE{ID: i, Node: m.nodes[i/cfg.PEsPerNode]}
		m.resetSpeed(m.pes[i])
	}
	m.nicFreeAt = make([]des.Time, cfg.NumNodes)
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// NumPEs returns the machine's PE count.
func (m *Machine) NumPEs() int { return len(m.pes) }

// NumNodes returns the machine's node count.
func (m *Machine) NumNodes() int { return len(m.nodes) }

// PE returns PE i.
func (m *Machine) PE(i int) *PE { return m.pes[i] }

// Node returns node i.
func (m *Machine) Node(i int) *Node { return m.nodes[i] }

// SetInterference sets the external-load fraction on PE i (cloud model).
func (m *Machine) SetInterference(pe int, frac float64) {
	if frac < 0 || frac >= 1 {
		panic(fmt.Sprintf("machine: interference %v out of [0,1)", frac))
	}
	m.pes[pe].interference = frac
	m.resetSpeed(m.pes[pe])
}

// ResetNIC clears the egress NIC queue of the node hosting pe: a crashed
// node reboots with an empty NIC, so transmissions it had queued — now
// lost — must not delay post-recovery sends.
func (m *Machine) ResetNIC(pe int) {
	m.nicFreeAt[m.pes[pe].Node.ID] = 0
}

// ResetAllNICs clears every node's egress NIC queue. Rollback recovery
// calls it: a checkpoint is taken at a quiescent cut where every link is
// idle, so replaying from the checkpoint must not inherit bookings made
// by the rolled-back (discarded) traffic — a residual backlog would shift
// replayed transmits and break the replay's time-translation invariance.
func (m *Machine) ResetAllNICs() {
	for n := range m.nicFreeAt {
		m.nicFreeAt[n] = 0
	}
}

// SpreadCooling applies a deterministic linear cooling gradient across the
// nodes, from lo (node 0, well cooled) to hi (last node, poorly cooled) —
// the machine-room variation that makes naive DVFS unbalanced.
func (m *Machine) SpreadCooling(lo, hi float64) {
	n := len(m.nodes)
	for i, node := range m.nodes {
		f := lo
		if n > 1 {
			f = lo + (hi-lo)*float64(i)/float64(n-1)
		}
		node.coolFactor = f
	}
}

// SetNodeFreq pins node n to the DVFS level nearest f (or exactly f when the
// machine has no DVFS table).
func (m *Machine) SetNodeFreq(n int, f float64) {
	if len(m.cfg.DVFSLevelsGHz) == 0 {
		m.setFreq(n, f)
		return
	}
	best := m.cfg.DVFSLevelsGHz[0]
	for _, lv := range m.cfg.DVFSLevelsGHz {
		if math.Abs(lv-f) < math.Abs(best-f) {
			best = lv
		}
	}
	m.setFreq(n, best)
}

// StepNodeFreq moves node n up (+1) or down (-1) one DVFS level and reports
// the new frequency.
func (m *Machine) StepNodeFreq(n, dir int) float64 {
	node := m.nodes[n]
	levels := m.cfg.DVFSLevelsGHz
	if len(levels) == 0 {
		return node.freqGHz
	}
	idx := 0
	for i, lv := range levels {
		if math.Abs(lv-node.freqGHz) < math.Abs(levels[idx]-node.freqGHz) {
			idx = i
		}
	}
	idx += dir
	if idx < 0 {
		idx = 0
	}
	if idx >= len(levels) {
		idx = len(levels) - 1
	}
	m.setFreq(n, levels[idx])
	return node.freqGHz
}

// setFreq sets node n's clock and refreshes its PEs' cached speeds.
func (m *Machine) setFreq(n int, f float64) {
	m.nodes[n].freqGHz = f
	per := m.cfg.PEsPerNode
	for _, p := range m.pes[n*per : (n+1)*per] {
		m.resetSpeed(p)
	}
}

// resetSpeed recomputes p's cached speed from its node's clock and its
// interference.
func (m *Machine) resetSpeed(p *PE) { p.speed = p.Speed(m.cfg.BaseFreqGHz) }

// Speed returns PE i's current speed, PE(i).Speed(BaseFreqGHz), as cached
// at the last change of its node's clock or its interference.
func (m *Machine) Speed(pe int) float64 { return m.pes[pe].speed }

// ComputeTime converts nominal work (seconds at base frequency on a
// dedicated PE) into the virtual duration on PE i at its current speed.
func (m *Machine) ComputeTime(pe int, work float64) des.Time {
	if work <= 0 {
		return 0
	}
	s := m.pes[pe].speed
	if s <= 0 {
		s = 1e-6
	}
	return des.Time(work / s)
}

// Hops returns the torus hop distance between the nodes of two PEs.
func (m *Machine) Hops(srcPE, dstPE int) int {
	a, b := m.pes[srcPE].Node, m.pes[dstPE].Node
	if a == b {
		return 0
	}
	h := 0
	for d, dim := range m.cfg.TorusDims {
		delta := abs(a.coords[d] - b.coords[d])
		if w := dim - delta; w < delta {
			delta = w
		}
		h += delta
	}
	return h
}

// NetDelay returns the wire latency of a message of b bytes from srcPE to
// dstPE, excluding per-message CPU overheads (see SendOverhead/RecvOverhead).
func (m *Machine) NetDelay(srcPE, dstPE int, bytes int) des.Time {
	if m.pes[srcPE].Node == m.pes[dstPE].Node {
		return des.Time(m.cfg.AlphaLocal + float64(bytes)*m.cfg.BetaLocal)
	}
	h := m.Hops(srcPE, dstPE)
	return des.Time(m.cfg.Alpha + float64(bytes)*m.cfg.Beta + float64(h)*m.cfg.PerHop)
}

// Transmit computes the arrival time of a message entering the network at
// time t. Without a NIC bandwidth limit this is t + NetDelay; with one,
// the message first queues for the sending node's NIC and occupies it for
// (bytes + packet overhead) / bandwidth — concurrent senders on a node
// serialize, which is the contention fine-grained messaging suffers from
// (§III-F).
func (m *Machine) Transmit(srcPE, dstPE, bytes int, t des.Time) des.Time {
	srcNode := m.pes[srcPE].Node
	if m.cfg.NICBandwidth <= 0 || srcNode == m.pes[dstPE].Node {
		return t + m.NetDelay(srcPE, dstPE, bytes)
	}
	n := srcNode.ID
	start := t
	if m.nicFreeAt[n] > start {
		start = m.nicFreeAt[n]
	}
	occupancy := des.Time(float64(bytes+m.cfg.PacketOverheadBytes) / m.cfg.NICBandwidth)
	m.nicFreeAt[n] = start + occupancy
	// Latency excludes the size term (occupancy covers serialization).
	h := m.Hops(srcPE, dstPE)
	lat := des.Time(m.cfg.Alpha + float64(h)*m.cfg.PerHop)
	return start + occupancy + lat
}

// SendOverhead returns the CPU time the sending PE spends per remote
// message.
func (m *Machine) SendOverhead(pe int) des.Time {
	return m.ComputeTime(pe, m.cfg.SendOverhead)
}

// RecvOverhead returns the CPU time the receiving PE spends per remote
// message.
func (m *Machine) RecvOverhead(pe int) des.Time {
	return m.ComputeTime(pe, m.cfg.RecvOverhead)
}

// SendOverheadTo returns the per-message CPU cost on the sender for a
// message to dst: node-local messages skip the network stack.
func (m *Machine) SendOverheadTo(pe, dst int) des.Time {
	if m.pes[pe].Node == m.pes[dst].Node {
		return m.ComputeTime(pe, m.cfg.SendOverheadLocal)
	}
	return m.ComputeTime(pe, m.cfg.SendOverhead)
}

// RecvOverheadFrom returns the per-message CPU cost on the receiver for a
// message from src.
func (m *Machine) RecvOverheadFrom(pe, src int) des.Time {
	if m.pes[pe].Node == m.pes[src].Node {
		return m.ComputeTime(pe, m.cfg.RecvOverheadLocal)
	}
	return m.ComputeTime(pe, m.cfg.RecvOverhead)
}

// CacheFactor returns the compute-time multiplier for a unit of work whose
// working set is ws bytes, when the node's cache is shared by sharers
// concurrent working sets. A working set within its cache share runs at
// factor 1; one that spills runs at up to CacheMissFactor, interpolating
// smoothly so that partial locality earns partial credit.
func (m *Machine) CacheFactor(workingSetBytes int64, sharers int) float64 {
	if m.cfg.CachePerNodeBytes == 0 || workingSetBytes <= 0 {
		return 1
	}
	if sharers < 1 {
		sharers = 1
	}
	share := float64(m.cfg.CachePerNodeBytes) / float64(sharers)
	ratio := float64(workingSetBytes) / share
	if ratio <= 1 {
		return 1
	}
	// Hit fraction falls as share/ws; miss fraction pays the full factor.
	hit := 1 / ratio
	return hit + (1-hit)*m.cfg.CacheMissFactor
}

// SampleUtilization computes each node's utilization over the window
// [prev, now] from its PEs' accumulated busy time, storing it on the node
// for the thermal model, and returns the mean utilization.
func (m *Machine) SampleUtilization(window des.Time) float64 {
	if window <= 0 {
		return 0
	}
	total := 0.0
	for _, n := range m.nodes {
		n.Utilization = 0
	}
	for _, p := range m.pes {
		delta := p.BusyTime - p.lastSample
		p.lastSample = p.BusyTime
		u := float64(delta) / float64(window)
		if u > 1 {
			u = 1
		}
		p.Node.Utilization += u / float64(m.cfg.PEsPerNode)
	}
	for _, n := range m.nodes {
		total += n.Utilization
	}
	return total / float64(len(m.nodes))
}

// StepThermal advances every node's temperature by dt seconds using the
// lumped RC model and the node's current frequency and utilization.
func (m *Machine) StepThermal(dt float64) {
	p := m.cfg.Thermal
	if p.CapacitanceJ == 0 {
		return
	}
	for _, n := range m.nodes {
		rel := n.freqGHz / m.cfg.BaseFreqGHz
		power := p.StaticW + p.DynamicW*rel*rel*rel*n.Utilization
		n.energyJ += power * dt
		dT := (power - (n.tempC-p.AmbientC)/(p.ResistanceCW*n.coolFactor)) / p.CapacitanceJ
		n.tempC += dT * dt
		if n.tempC > n.maxTempC {
			n.maxTempC = n.tempC
		}
	}
}

// TotalEnergyJ returns the machine-wide accumulated energy in joules.
func (m *Machine) TotalEnergyJ() float64 {
	total := 0.0
	for _, n := range m.nodes {
		total += n.energyJ
	}
	return total
}

// HottestEver returns the maximum temperature any node ever reached.
func (m *Machine) HottestEver() float64 {
	max := math.Inf(-1)
	for _, n := range m.nodes {
		if n.maxTempC > max {
			max = n.maxTempC
		}
	}
	return max
}

func nodeCoords(id int, dims []int) []int {
	c := make([]int, len(dims))
	for d := len(dims) - 1; d >= 0; d-- {
		c[d] = id % dims[d]
		id /= dims[d]
	}
	return c
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// NodeAt returns the node id at the given torus coordinates (row-major,
// the inverse of the node's coordinate assignment).
func (m *Machine) NodeAt(coords []int) int {
	id := 0
	for d, dim := range m.cfg.TorusDims {
		c := coords[d] % dim
		if c < 0 {
			c += dim
		}
		id = id*dim + c
	}
	if id >= len(m.nodes) {
		id %= len(m.nodes)
	}
	return id
}

// TorusDims returns the node-level torus dimensions.
func (m *Machine) TorusDims() []int {
	return append([]int(nil), m.cfg.TorusDims...)
}
