package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"charmgo/internal/des"
)

// flightCap is the flight recorder's capacity in entries (≈ 0.3 MB),
// whatever the machine's width.
const flightCap = 4096

// FlightEntry is one recorded engine decision. Seq is the record's position
// in the one global order, WallNs the wall stamp from the owning Telemetry's
// clock, VT the virtual time of the decision, Shard the shard that made it
// (-1 for the driver).
type FlightEntry struct {
	Seq    uint64  `json:"seq"`
	WallNs int64   `json:"wall_ns"`
	VT     float64 `json:"vt"`
	Shard  int     `json:"shard"`
	Kind   string  `json:"kind"`
	Detail string  `json:"detail,omitempty"`
}

// FlightDump is the JSON artifact a Dump writes: the retained history in
// seq order.
type FlightDump struct {
	Reason    string        `json:"reason"`
	WrittenAt string        `json:"written_at"`
	Shards    int           `json:"shards"`
	RingSize  int           `json:"ring_size"`
	Entries   []FlightEntry `json:"entries"`
}

// Recorder is the crash flight recorder: one fixed-size ring of the most
// recent engine decisions in the order they were noted, dumped to a
// timestamped JSON artifact on panic. The record with sequence number s
// lives in ring[s%flightCap], so reading it back is two copies, no merge.
//
// Note may be called from driver or commit context while Dump runs from a
// panicking goroutine, so the ring is mutex-protected; the lock is
// uncontended in normal operation.
type Recorder struct {
	mu     sync.Mutex
	seq    uint64 // records ever written
	ring   []FlightEntry
	shards int
	dir    string
	clock  func() int64
	dumps  atomic.Uint32
}

func newRecorder(shards int, dir string, clock func() int64) *Recorder {
	return &Recorder{ring: make([]FlightEntry, flightCap), shards: shards, dir: dir, clock: clock}
}

// Note appends one record, overwriting the oldest when the ring is full.
func (r *Recorder) Note(shard int, kind string, vt des.Time, detail string) {
	wall := r.clock()
	r.mu.Lock()
	r.ring[r.seq%flightCap] = FlightEntry{Seq: r.seq, WallNs: wall, VT: float64(vt), Shard: shard, Kind: kind, Detail: detail}
	r.seq++
	r.mu.Unlock()
}

// Seq returns the number of records ever written.
func (r *Recorder) Seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Dumps returns how many dump artifacts have been written.
func (r *Recorder) Dumps() uint32 { return r.dumps.Load() }

// Snapshot returns a copy of every retained record, oldest first.
func (r *Recorder) Snapshot() []FlightEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seq <= flightCap {
		return append([]FlightEntry(nil), r.ring[:r.seq]...)
	}
	head := r.seq % flightCap
	out := make([]FlightEntry, 0, flightCap)
	out = append(out, r.ring[head:]...)
	return append(out, r.ring[:head]...)
}

// Dump writes the retained history to a timestamped JSON artifact named
// flightrec-<reason>-<n>-<stamp>.json in the recorder's directory and
// returns its path. Failures are reported on stderr rather than raised:
// the dump path runs during panics and failure handling, where a
// secondary error must not mask the primary one.
func (r *Recorder) Dump(reason string) (string, error) {
	n := r.dumps.Add(1)
	//charmvet:telemetry (artifact stamp; written to the dump file, never to simulation state)
	stamp := time.Now().UTC().Format("20060102T150405.000Z")
	doc := FlightDump{
		Reason:    reason,
		WrittenAt: stamp,
		Shards:    r.shards,
		RingSize:  flightCap,
		Entries:   r.Snapshot(),
	}
	path := filepath.Join(r.dir, fmt.Sprintf("flightrec-%s-%d-%s.json", reason, n, stamp))
	data, err := json.MarshalIndent(doc, "", "  ")
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "telemetry: flight-recorder dump %s failed: %v\n", reason, err)
		return "", err
	}
	fmt.Fprintf(os.Stderr, "telemetry: flight recorder dumped to %s (%s, %d entries)\n", path, reason, len(doc.Entries))
	return path, nil
}

// DumpOnPanic dumps the flight recorder when the calling goroutine is
// panicking, then re-panics. Use as `defer tel.DumpOnPanic()` around the
// run so a crash leaves a postmortem artifact:
//
//	tel := telemetry.Attach(rt, telemetry.Options{})
//	defer tel.DumpOnPanic()
//	rt.Run()
func (t *Telemetry) DumpOnPanic() {
	if r := recover(); r != nil {
		t.flight.Note(-1, "panic", t.rt.Now(), fmt.Sprint(r))
		t.flight.Dump("panic")
		panic(r)
	}
}
