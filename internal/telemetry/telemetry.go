// Package telemetry is the runtime's wall-clock observability layer: it
// profiles the three des.Engine backends and the charm runtime in *wall*
// time (where projections profiles the simulated machine in *virtual*
// time), serves the results over a live HTTP introspection endpoint, and
// keeps a crash flight recorder of recent engine decisions. It is three
// things: a clock (WallNow), a throttled publication of the runtime's
// metrics.Registry (publish), and one bounded ring (Recorder).
//
// # The side-band rule
//
// Telemetry is strictly side-band to simulation state. The engines report
// decisions to a des.Probe and obtain wall-clock stamps from it, but
// nothing a probe returns may influence scheduling, and no wall-clock
// value may flow into simulation state (des.Time, event payloads, chare
// fields). The house invariant is enforced by test and by charmvet: a run
// with telemetry attached produces a byte-identical digest to a run
// without, on every backend, and every wall-clock read in the module lives
// in this package under a //charmvet:telemetry waiver that dettaint
// honors only here — and only for values that provably stay side-band.
//
// # Hook inventory
//
// des.Probe (engines → telemetry, driver goroutine only):
//
//	EventExecuted   every event; drives publish throttling and samples
//	                commit-queue depth (wall.queue_depth histogram)
//	PhaseWall       per worker-launched phase: launch→commit wall latency
//	                (wall.phase_ns / wall.spec_phase_ns timers,
//	                wall.phase_latency_ns histogram) and the driver's
//	                pop-time stall (wall.driver_stall_ns)
//	WindowStall     conservative scans that could overlap nothing
//	                (wall.window_stalls)
//	SpecLaunched    optimistic launches + GVT lag (wall.spec_launches,
//	                wall.gvt_lag_vns histogram, virtual nanoseconds)
//	SpecRolledBack  rollback count and wall cost (wall.rollbacks,
//	                wall.rollback_wait_ns)
//
// Failure milestones are not hooked here: they are KFault records in the
// event log and chaos.Controller.Records.
//
// charm message pool: rts.msg_pool_gets / rts.msg_pool_outstanding gauge
// funcs over charm.PoolStats (event-pool occupancy).
//
// Everything lands in the runtime's metrics.Registry, so the existing
// exporters (text summary, projections) and the new Prometheus/JSON
// endpoints see one namespace.
package telemetry

import (
	"sync/atomic"
	"time"

	"charmgo/internal/charm"
	"charmgo/internal/des"
	"charmgo/internal/projections/metrics"
)

// publishInterval is the wall-clock period between metric publications.
// Publications happen from driver context at event boundaries, so an idle
// engine publishes nothing until its next event.
const publishInterval = int64(250 * time.Millisecond)

// Options configures an attachment.
type Options struct {
	// FlightDir is the directory flight-recorder dumps are written to
	// (default the working directory).
	FlightDir string
}

// Telemetry is one attached observability instance: the des.Probe the
// engines report to and the publication pump the HTTP server reads from.
type Telemetry struct {
	rt   *charm.Runtime
	base time.Time

	// Hot-path metric handles, resolved once at Attach.
	events       *metrics.Counter
	phaseNs      *metrics.Timer
	specPhaseNs  *metrics.Timer
	stallNs      *metrics.Timer
	rollbackNs   *metrics.Timer
	windowStalls *metrics.Counter
	specLaunches *metrics.Counter
	rollbacks    *metrics.Counter
	publishes    *metrics.Counter
	phaseHist    *metrics.Histogram
	gvtLagHist   *metrics.Histogram
	queueDepth   *metrics.Histogram

	pool *charm.PoolStats

	// Publish throttle state, driver goroutine only.
	n       uint64
	lastPub int64
	prevPub map[string]float64

	flight *Recorder

	// pub is the latest publication: stored by the driver's publish pump,
	// loaded by the HTTP handlers, which therefore never touch runtime
	// state or see a half-written publication.
	pub atomic.Pointer[Publication]
}

// Status is the /status document: what the runtime is doing right now,
// refreshed at every publication.
type Status struct {
	Backend    string  `json:"backend"`
	VT         float64 `json:"vt"`
	GVT        float64 `json:"gvt"`
	Executed   uint64  `json:"events_executed"`
	Pending    int     `json:"events_pending"`
	MsgsSent   uint64  `json:"msgs_sent"`
	Rollbacks  uint64  `json:"rollbacks"`
	GVTLag     float64 `json:"gvt_lag"`
	PoolInUse  int64   `json:"msg_pool_outstanding"`
	WallMs     float64 `json:"wall_ms"`
	Running    bool    `json:"running"`
	FlightSeq  uint64  `json:"flight_seq"`
	FlightDump uint32  `json:"flight_dumps"`

	// Optimistic-backend state saving (zero on other backends): snapshots
	// actually packed vs skipped by infrequent saving, coast-forward
	// replay executions, how the images' intervals ended (retired on
	// schedule vs invalidated early by migration, load balancing or a
	// multi-element execution), and the live adaptive settings.
	Snapshots        uint64  `json:"snapshots,omitempty"`
	SnapshotsAvoided uint64  `json:"snapshots_avoided,omitempty"`
	Replays          uint64  `json:"replays,omitempty"`
	SavesRetired     uint64  `json:"save_retired,omitempty"`
	SavesInvalidated uint64  `json:"save_invalidations,omitempty"`
	SnapInterval     int     `json:"snap_interval,omitempty"`
	SnapAdaptive     bool    `json:"snap_adaptive,omitempty"`
	WindowSec        float64 `json:"optimism_window_sec,omitempty"`
}

// Publication is one published observation: the typed metric export, the
// status document, and the flat-sample deltas since the previous
// publication (the /events NDJSON payload).
type Publication struct {
	Seq     uint64
	WallNs  int64
	Status  Status
	Metrics []metrics.Metric
	Deltas  []metrics.Sample
}

// Attach wires telemetry onto a runtime: resolves the metric handles,
// enables message-pool accounting, creates the flight recorder, and
// installs itself as the engine's probe (on engines that accept one — the
// reference heap engine does not, and loses only wall profiling).
// Call before Run; combine with Serve for the HTTP endpoints.
func Attach(rt *charm.Runtime, opts Options) *Telemetry {
	reg := rt.Metrics()
	t := &Telemetry{
		rt: rt,
		//charmvet:telemetry (wall-clock epoch for all interval math; never enters simulation state)
		base:         time.Now(),
		events:       reg.Counter("wall.events"),
		phaseNs:      reg.Timer("wall.phase_ns"),
		specPhaseNs:  reg.Timer("wall.spec_phase_ns"),
		stallNs:      reg.Timer("wall.driver_stall_ns"),
		rollbackNs:   reg.Timer("wall.rollback_wait_ns"),
		windowStalls: reg.Counter("wall.window_stalls"),
		specLaunches: reg.Counter("wall.spec_launches"),
		rollbacks:    reg.Counter("wall.rollbacks"),
		publishes:    reg.Counter("wall.publishes"),
		phaseHist:    reg.Histogram("wall.phase_latency_ns"),
		gvtLagHist:   reg.Histogram("wall.gvt_lag_vns"),
		queueDepth:   reg.Histogram("wall.queue_depth"),
		prevPub:      map[string]float64{},
	}
	t.pool = charm.EnablePoolStats()
	reg.GaugeFunc("rts.msg_pool_gets", func() float64 { return float64(t.pool.Gets.Load()) })
	reg.GaugeFunc("rts.msg_pool_outstanding", func() float64 { return float64(t.pool.Outstanding()) })
	reg.GaugeFunc("rts.events_pending", func() float64 { return float64(rt.Engine().Pending()) })
	t.flight = newRecorder(rt.Machine().NumNodes(), opts.FlightDir, t.WallNow)
	if ps, ok := rt.Engine().(des.ProbeSetter); ok {
		ps.SetProbe(t)
	}
	return t
}

// Flight returns the flight recorder.
func (t *Telemetry) Flight() *Recorder { return t.flight }

// WallNow returns nanoseconds since Attach, from the monotonic clock. It
// is the single wall-clock source the engines consume (via des.Probe).
func (t *Telemetry) WallNow() int64 {
	//charmvet:telemetry (the one engine-facing wall-clock read; stamps stay side-band)
	return int64(time.Since(t.base))
}

// EventExecuted implements des.Probe: count, sample queue depth, and
// publish when the interval elapsed. The clock is read only every 1024
// events, so the per-event cost is a counter bump.
func (t *Telemetry) EventExecuted(shard int, at des.Time, pending int) {
	t.events.Inc()
	t.n++
	if t.n&1023 != 0 {
		return
	}
	t.queueDepth.Observe(uint64(pending))
	now := t.WallNow()
	if now-t.lastPub >= publishInterval {
		t.lastPub = now
		t.publish(at, true, now)
	}
}

// PhaseWall implements des.Probe.
func (t *Telemetry) PhaseWall(shard int, at des.Time, wallNs, stallNs int64, speculative bool) {
	if speculative {
		t.specPhaseNs.ObserveNs(wallNs)
	} else {
		t.phaseNs.ObserveNs(wallNs)
	}
	t.phaseHist.Observe(uint64(wallNs))
	t.stallNs.ObserveNs(stallNs)
}

// WindowStall implements des.Probe.
func (t *Telemetry) WindowStall(at des.Time) {
	t.windowStalls.Inc()
	t.flight.Note(-1, "window_stall", at, "")
}

// SpecLaunched implements des.Probe.
func (t *Telemetry) SpecLaunched(shard int, at des.Time, gvtLag des.Time) {
	t.specLaunches.Inc()
	t.gvtLagHist.Observe(uint64(gvtLag * 1e9))
	t.flight.Note(shard, "spec_launch", at, "")
}

// SpecRolledBack implements des.Probe: a straggler (or cancel/exit)
// undid shard's speculation.
func (t *Telemetry) SpecRolledBack(shard int, at des.Time, waitNs int64) {
	t.rollbacks.Inc()
	t.rollbackNs.ObserveNs(waitNs)
	t.flight.Note(shard, "rollback", at, "straggler")
}

// Final publishes a last observation marked not-running. Call after Run
// so /status and /metrics reflect the finished state; Server.Close does.
func (t *Telemetry) Final() {
	t.publish(t.rt.Now(), false, t.WallNow())
}

// publish evaluates the registry and status from driver context and stores
// the immutable publication for the handlers. GaugeFuncs read live runtime
// state, which is why this never runs from the HTTP goroutine.
func (t *Telemetry) publish(at des.Time, running bool, wallNs int64) {
	t.publishes.Inc()
	ms := t.rt.Metrics().Export()
	flat := metrics.Flatten(ms)
	deltas := make([]metrics.Sample, 0, 16)
	next := make(map[string]float64, len(flat))
	for _, s := range flat {
		next[s.Name] = s.Value
		if prev, ok := t.prevPub[s.Name]; !ok || prev != s.Value {
			deltas = append(deltas, s)
		}
	}
	t.prevPub = next

	st := Status{
		Backend:    t.rt.Machine().Config().Backend,
		VT:         float64(at),
		GVT:        float64(t.rt.Now()),
		Executed:   t.rt.Engine().Executed(),
		Pending:    t.rt.Engine().Pending(),
		MsgsSent:   t.rt.Stats.MsgsSent,
		Rollbacks:  t.rollbacks.Value(),
		GVTLag:     next["optsim.gvt_lag"], // registered by the optimistic engine only
		PoolInUse:  t.pool.Outstanding(),
		WallMs:     float64(wallNs) / 1e6,
		Running:    running,
		FlightSeq:  t.flight.Seq(),
		FlightDump: t.flight.Dumps(),
	}
	if st.Backend == "" {
		st.Backend = "sequential"
	}
	if saves := t.rt.SpecSaveStats(); saves.Snapshots > 0 || saves.SnapshotsAvoided > 0 {
		st.Snapshots = saves.Snapshots
		st.SnapshotsAvoided = saves.SnapshotsAvoided
		st.Replays = saves.Replays
		st.SavesRetired = saves.Retired
		st.SavesInvalidated = saves.Invalidations
		st.SnapInterval = saves.SnapInterval
		st.SnapAdaptive = saves.Adaptive
		st.WindowSec = saves.Window
	}
	pub := &Publication{
		Seq:     t.publishes.Value(),
		WallNs:  wallNs,
		Status:  st,
		Metrics: ms,
		Deltas:  deltas,
	}
	t.pub.Store(pub)
}
