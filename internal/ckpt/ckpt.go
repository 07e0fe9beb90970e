// Package ckpt implements the checkpoint/restart and fault-tolerance layer
// of §III-B: chare-based disk checkpoints that can be restarted on any PE
// count (split execution), and the double in-memory checkpointing scheme of
// FTC-Charm++ with simulated process failure and recovery.
//
// Because checkpoints are per-chare (unit-based), not per-process, a job
// checkpointed on 4096 PEs restarts transparently on 512 or 16384 — the
// elements are simply re-homed by the location manager.
package ckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"slices"
	"strconv"

	"charmgo/internal/charm"
	"charmgo/internal/des"
	"charmgo/internal/pup"
)

// ElemSnap is the serialized state of one chare-array element.
type ElemSnap struct {
	Idx  charm.Index
	PE   int // PE at capture time (for in-memory recovery placement)
	Data []byte
}

func (e *ElemSnap) Pup(p *pup.Pup) {
	p.Uint8(&e.Idx.Kind)
	p.Uint64(&e.Idx.A)
	p.Uint64(&e.Idx.B)
	p.Uint64(&e.Idx.C)
	p.Int(&e.PE)
	p.BytesSlice(&e.Data)
}

// ArraySnap captures one chare array.
type ArraySnap struct {
	Name  string
	Elems []ElemSnap
	// arena backs every Elems[i].Data of a cut, so the next cut taken into
	// this snapshot (Mem recycles them) reuses it.
	arena []byte //pup:skip //charmvet:specstate (storage behind Data, not chare state; a snapshot is never part of a speculative phase)
}

func (a *ArraySnap) Pup(p *pup.Pup) {
	p.String(&a.Name)
	pup.Slice(p, &a.Elems, func(p *pup.Pup, e *ElemSnap) { e.Pup(p) })
}

// Snapshot is a full application checkpoint.
type Snapshot struct {
	TakenAt float64 // virtual time of the checkpoint
	NumPEs  int     // PE count of the original run (informational only)
	Arrays  []ArraySnap
}

func (s *Snapshot) Pup(p *pup.Pup) {
	p.Float64(&s.TakenAt)
	p.Int(&s.NumPEs)
	pup.Slice(p, &s.Arrays, func(p *pup.Pup, a *ArraySnap) { a.Pup(p) })
}

// imageInto is the one traversal of a runtime's state, written into s and
// reusing its slices and arenas: every element of every declared array, in
// declaration order and then sorted index order, with its PUP bytes
// (charm.Array.AppendImage: the LB round's clean image where there is one)
// and its current PE. It counts and traces nothing; Capture adds that.
func imageInto(rt *charm.Runtime, s *Snapshot) *Snapshot {
	s.TakenAt, s.NumPEs = float64(rt.Now()), rt.NumPEs()
	arrs := rt.Arrays()
	s.Arrays = slices.Grow(s.Arrays[:0], len(arrs))[:len(arrs)]
	for i, arr := range arrs {
		as := &s.Arrays[i]
		as.Name = arr.Name()
		keys := arr.Keys()
		as.Elems = slices.Grow(as.Elems[:0], len(keys))[:len(keys)]
		n := 0
		for _, idx := range keys {
			n += arr.ImageLen(idx)
		}
		buf := slices.Grow(as.arena[:0], n)
		for j, idx := range keys {
			off := len(buf)
			buf = arr.AppendImage(buf, idx)
			as.Elems[j] = ElemSnap{Idx: idx, PE: arr.PEOf(idx), Data: buf[off:len(buf):len(buf)]}
		}
		if len(buf) != n {
			panic(fmt.Sprintf("ckpt: %s sized to %d bytes but imaged to %d (unstable Pup method?)", as.Name, n, len(buf)))
		}
		as.arena = buf
	}
	return s
}

// Digest fingerprints the cut: a sha256 over "[name]" per array, then
// "|<idx>@<pe>:" and the element's bytes per element. It covers placement
// but no timestamp — recovery is a rigid time-shift of the failure-free
// run, so values and placement must match bit for bit while clocks may not.
func (s *Snapshot) Digest() string {
	d := digest{h: sha256.New()}
	for _, as := range s.Arrays {
		d.array(as.Name)
		for i := range as.Elems {
			es := &as.Elems[i]
			d.elem(es.Idx, es.PE, es.Data)
		}
	}
	return hex.EncodeToString(d.h.Sum(nil))
}

// ImageDigest is the Digest of the cut Capture would take now, hashed as
// each element is imaged into one reused buffer: no snapshot is built.
func ImageDigest(rt *charm.Runtime) string {
	d := digest{h: sha256.New()}
	var buf []byte
	for _, arr := range rt.Arrays() {
		d.array(arr.Name())
		for _, idx := range arr.Keys() {
			buf = arr.AppendImage(buf[:0], idx)
			d.elem(idx, arr.PEOf(idx), buf)
		}
	}
	return hex.EncodeToString(d.h.Sum(nil))
}

// digest is Digest's stream: h and a scratch buffer for the separators.
type digest struct {
	h hash.Hash
	b []byte
}

func (d *digest) array(name string) {
	d.b = append(append(append(d.b[:0], '['), name...), ']')
	d.h.Write(d.b)
}

func (d *digest) elem(idx charm.Index, pe int, data []byte) {
	d.b = idx.AppendTo(append(d.b[:0], '|'))
	d.b = append(strconv.AppendInt(append(d.b, '@'), int64(pe), 10), ':')
	d.h.Write(d.b)
	d.h.Write(data)
}

// Capture serializes every element of every declared array through its Pup
// method (CkStartCheckpoint's data-gathering step), counting and tracing
// the cut.
func Capture(rt *charm.Runtime) *Snapshot { return captureInto(rt, &Snapshot{}) }

// captureInto is Capture writing into s (see imageInto).
func captureInto(rt *charm.Runtime, s *Snapshot) *Snapshot {
	imageInto(rt, s)
	rt.Metrics().Counter("ckpt.captures").Inc()
	rt.Metrics().Counter("ckpt.bytes").Add(uint64(s.TotalBytes()))
	if h := rt.Trace(); h != nil {
		h.Emit(charm.Event{Kind: charm.KCheckpoint, At: rt.Now(), PE: -1,
			Entry: rt.Names().Intern(string(charm.CheckpointCapture)), A: s.TotalBytes()})
	}
	return s
}

// rebuild is the step disk restart and in-memory recovery share: for every
// element image in s, a factory-fresh object of the named array with the
// image unpacked into it, handed to place. op names the caller in errors.
func rebuild(rt *charm.Runtime, s *Snapshot, op string, place func(arr *charm.Array, es *ElemSnap, obj charm.Chare)) error {
	for _, as := range s.Arrays {
		arr := rt.ArrayByName(as.Name)
		if arr == nil {
			return fmt.Errorf("ckpt: %s: array %q not declared", op, as.Name)
		}
		for i := range as.Elems {
			es := &as.Elems[i]
			obj, err := arr.Unpack(es.Data)
			if err != nil {
				return fmt.Errorf("ckpt: %s %v: %w", op, es.Idx, err)
			}
			place(arr, es, obj)
		}
	}
	return nil
}

// Restore repopulates a freshly declared runtime from a snapshot: each
// element is recreated via its array's factory and inserted at its home on
// the new runtime's (possibly different) PE count.
func Restore(rt *charm.Runtime, s *Snapshot) error {
	return rebuild(rt, s, "restore", func(arr *charm.Array, es *ElemSnap, obj charm.Chare) {
		arr.Insert(es.Idx, obj)
	})
}

// TotalBytes returns the checkpoint's payload size.
func (s *Snapshot) TotalBytes() int64 {
	var n int64
	for _, a := range s.Arrays {
		for _, e := range a.Elems {
			n += int64(len(e.Data)) + 40
		}
	}
	return n
}

// PerPEBytes returns the checkpoint bytes resident on each of n PEs at
// capture time. Operators (cmd/ckptinfo) use it to judge the blast radius
// of a planned failure campaign: the buddy of a heavy PE streams that many
// bytes during restart.
func (s *Snapshot) PerPEBytes(n int) []int64 {
	per := make([]int64, n)
	for _, a := range s.Arrays {
		for _, e := range a.Elems {
			if e.PE >= 0 && e.PE < n {
				per[e.PE] += int64(len(e.Data)) + 40
			}
		}
	}
	return per
}

// WriteTo streams the snapshot in its PUP-framed binary format.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	data := pup.Pack(s)
	n, err := w.Write(data)
	return int64(n), err
}

// ReadSnapshot parses a snapshot written by WriteTo.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{}
	if err := pup.Unpack(data, s); err != nil {
		return nil, err
	}
	return s, nil
}

// Save writes the snapshot to a file (the "log" path of
// CkStartCheckpoint).
func (s *Snapshot) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := s.WriteTo(f); err != nil {
		return err
	}
	return f.Sync()
}

// Load reads a snapshot from a file (the "+restart log" path).
func Load(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}

// TimeModel parameterizes the virtual cost of checkpoint operations.
type TimeModel struct {
	// SerializeBW is the per-PE PUP serialization bandwidth, bytes/s.
	SerializeBW float64
	// DiskBW is the per-PE sustained file-system bandwidth, bytes/s
	// (parallel file system: every PE writes its own shard).
	DiskBW float64
	// MemBW is the per-PE memory/network bandwidth for buddy copies.
	MemBW float64
	// Barrier is the cost of one global synchronization.
	Barrier float64
	// CoordPerPE is the restart coordinator's per-PE bookkeeping cost,
	// the term that makes restart grow with P (Fig 10's barrier effect).
	CoordPerPE float64
	// Base is fixed per-operation overhead.
	Base float64
}

// DefaultModel returns parameters calibrated so BG/Q-scale runs land in the
// ranges the paper reports (tens of ms to seconds).
func DefaultModel(numPEs int) TimeModel {
	depth := 1.0
	for n := 1; n < numPEs; n <<= 1 {
		depth++
	}
	return TimeModel{
		SerializeBW: 2.0e9,
		DiskBW:      40e6,
		MemBW:       1.2e9,
		Barrier:     depth * 6e-6,
		CoordPerPE:  2.2e-6,
		Base:        3e-3,
	}
}

// DiskCheckpointTime models CkStartCheckpoint to a parallel file system:
// every PE serializes and writes its local elements concurrently, then a
// barrier confirms completion. More PEs ⇒ fewer bytes per PE ⇒ faster
// (Fig 8 right: 394 ms at 2k PEs down to 29 ms at 32k).
func DiskCheckpointTime(s *Snapshot, numPEs int, tm TimeModel) des.Time {
	per := s.PerPEBytes(numPEs)
	var worst float64
	for _, b := range per {
		t := float64(b)/tm.SerializeBW + float64(b)/tm.DiskBW
		if t > worst {
			worst = t
		}
	}
	return des.Time(tm.Base + worst + 2*tm.Barrier)
}

// DiskRestartTime models +restart: PEs read their shards back, elements are
// re-homed, and several barriers establish consistency.
func DiskRestartTime(s *Snapshot, numPEs int, tm TimeModel) des.Time {
	total := float64(s.TotalBytes())
	perPE := total / float64(numPEs)
	read := perPE/tm.DiskBW + perPE/tm.SerializeBW
	return des.Time(tm.Base + 2*read + 4*tm.Barrier + tm.CoordPerPE*float64(numPEs)/8)
}
