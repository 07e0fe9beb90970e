// Package pup implements the pack/unpack (PUP) serialization framework of
// the migratable-objects model. A single traversal function written by the
// chare author serves three purposes — sizing, packing, and unpacking —
// exactly like Charm++'s PUP::er: the runtime calls it with a Pup in the
// appropriate mode to migrate a chare, take a checkpoint, or restore one.
//
//	func (a *A) Pup(p *pup.Pup) {
//		p.Int(&a.foo)
//		p.Float64s(&a.bar)
//	}
package pup

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Mode selects what a traversal does.
type Mode int

const (
	// Sizing measures the number of bytes the object serializes to.
	Sizing Mode = iota
	// Packing writes the object into the buffer.
	Packing
	// Unpacking reads the object out of the buffer.
	Unpacking
)

func (m Mode) String() string {
	switch m {
	case Sizing:
		return "sizing"
	case Packing:
		return "packing"
	case Unpacking:
		return "unpacking"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Pupable is the interface migratable state implements.
type Pupable interface {
	Pup(p *Pup)
}

// Pup is the serialization cursor passed to Pup methods.
type Pup struct {
	mode Mode
	buf  []byte
	off  int
}

// Mode returns the traversal mode.
//
//charmvet:unreached test oracle: the traversal-count pins in charm and chaos tell sizing, packing and unpacking apart with it
func (p *Pup) Mode() Mode { return p.mode }

// IsUnpacking reports whether the traversal restores state; Pup methods use
// it to allocate structures before filling them.
func (p *Pup) IsUnpacking() bool { return p.mode == Unpacking }

func (p *Pup) need(n int) []byte {
	switch p.mode {
	case Sizing:
		p.off += n
		return nil
	case Packing:
		if p.off+n > len(p.buf) {
			if p.off+n > cap(p.buf) {
				// Double, rather than append's 1.25x for large slices: an
				// arena packed from empty allocates about twice its size.
				nb := make([]byte, p.off, max(2*cap(p.buf), p.off+n, 64))
				copy(nb, p.buf[:p.off])
				p.buf = nb
			}
			p.buf = p.buf[:p.off+n]
		}
	case Unpacking:
		if p.off+n > len(p.buf) {
			panic(fmt.Sprintf("pup: unpacking underflow at %d+%d of %d", p.off, n, len(p.buf)))
		}
	}
	b := p.buf[p.off : p.off+n]
	p.off += n
	return b
}

// Uint64 pups a uint64.
func (p *Pup) Uint64(v *uint64) {
	b := p.need(8)
	switch p.mode {
	case Packing:
		binary.LittleEndian.PutUint64(b, *v)
	case Unpacking:
		*v = binary.LittleEndian.Uint64(b)
	}
}

// The composite helpers below (Int64, Int, Bool, Float64)
// write *v back only when unpacking. Packing and sizing traversals must be
// pure readers of the object graph: the optimistic backend PUP-snapshots a
// chare from a speculative phase on one worker while phases on other
// shards legitimately read state shared with it (zero-copy message
// payloads), and a same-value write-back is still a data race.

// Int64 pups an int64.
func (p *Pup) Int64(v *int64) {
	u := uint64(*v)
	p.Uint64(&u)
	if p.mode == Unpacking {
		*v = int64(u)
	}
}

// Int pups an int (always 8 bytes on the wire).
func (p *Pup) Int(v *int) {
	u := uint64(int64(*v))
	p.Uint64(&u)
	if p.mode == Unpacking {
		*v = int(int64(u))
	}
}

// Uint8 pups a byte.
func (p *Pup) Uint8(v *uint8) {
	b := p.need(1)
	switch p.mode {
	case Packing:
		b[0] = *v
	case Unpacking:
		*v = b[0]
	}
}

// Bool pups a bool.
func (p *Pup) Bool(v *bool) {
	var u uint8
	if *v {
		u = 1
	}
	p.Uint8(&u)
	if p.mode == Unpacking {
		*v = u != 0
	}
}

// Float64 pups a float64.
func (p *Pup) Float64(v *float64) {
	u := math.Float64bits(*v)
	p.Uint64(&u)
	if p.mode == Unpacking {
		*v = math.Float64frombits(u)
	}
}

// String pups a string with a length prefix.
func (p *Pup) String(v *string) {
	n := len(*v)
	p.Int(&n)
	if p.mode == Sizing {
		p.off += n
		return
	}
	b := p.need(n)
	switch p.mode {
	case Packing:
		copy(b, *v)
	case Unpacking:
		*v = string(b)
	}
}

// BytesSlice pups a []byte with a length prefix.
func (p *Pup) BytesSlice(v *[]byte) {
	n := len(*v)
	p.Int(&n)
	if p.mode == Sizing {
		p.off += n
		return
	}
	if p.mode == Unpacking {
		if n == 0 {
			*v = nil
		} else {
			*v = make([]byte, n)
		}
	}
	b := p.need(n)
	switch p.mode {
	case Packing:
		copy(b, *v)
	case Unpacking:
		copy(*v, b)
	}
}

// Virtual advances the cursor by n bytes of modeled payload without
// materializing application data: AMPI rank-chares use it so migration and
// checkpoint costs reflect the declared state size (the iso-malloc'd rank
// memory) without allocating it.
func (p *Pup) Virtual(n int) {
	if n < 0 {
		panic("pup: negative virtual size")
	}
	if p.mode == Sizing {
		p.off += n
		return
	}
	b := p.need(n)
	if p.mode == Packing {
		for i := range b {
			b[i] = 0
		}
	}
}

// Float64s pups a []float64 with a length prefix.
func (p *Pup) Float64s(v *[]float64) {
	Slice(p, v, (*Pup).Float64)
}

// Uint64s pups a []uint64 with a length prefix.
func (p *Pup) Uint64s(v *[]uint64) {
	Slice(p, v, (*Pup).Uint64)
}

// Slice pups any slice given an element pup function, resizing on unpack.
// It is the Go analogue of Charm++'s PUParray.
func Slice[T any](p *Pup, v *[]T, elem func(*Pup, *T)) {
	n := len(*v)
	p.Int(&n)
	if p.IsUnpacking() {
		if n == 0 {
			*v = nil
		} else {
			*v = make([]T, n)
		}
	}
	for i := range *v {
		elem(p, &(*v)[i])
	}
}

// cursorPool recycles Pup cursors: Size sits on the runtime's per-send
// message-sizing path and Unpack on every migration, where a fresh cursor
// per call is pure garbage. It is a few lock-free slots rather than a
// sync.Pool, which a collection empties: a warmed-up pack or unpack then
// allocates nothing whenever the collector runs, so allocation pins over
// rounds that pack hold under any GOGC. Phases on several goroutines can
// take cursors at once; a take that finds every slot empty allocates.
var cursorPool [8]atomic.Pointer[Pup]

func getCursor() *Pup {
	for i := range cursorPool {
		if p := cursorPool[i].Swap(nil); p != nil {
			return p
		}
	}
	return new(Pup)
}

func putCursor(p *Pup) {
	for i := range cursorPool {
		if cursorPool[i].CompareAndSwap(nil, p) {
			return
		}
	}
}

// Size measures the serialized size of obj.
func Size(obj Pupable) int {
	s := getCursor()
	*s = Pup{mode: Sizing}
	obj.Pup(s)
	n := s.off
	putCursor(s)
	return n
}

// Pack serializes obj into a fresh buffer of exactly its size.
func Pack(obj Pupable) []byte {
	return Append(make([]byte, 0, Size(obj)), obj)
}

// PackTo serializes obj into buf, reusing its capacity and growing it as
// needed; it returns the packed bytes. Pair with GetBuffer/PutBuffer to
// recycle pack buffers across migrations and checkpoints.
func PackTo(buf []byte, obj Pupable) []byte {
	return Append(buf[:0], obj)
}

// Append serializes obj onto the end of dst in one packing traversal,
// growing dst as needed, and returns the extended slice.
func Append(dst []byte, obj Pupable) []byte {
	pk := getCursor()
	*pk = Pup{mode: Packing, buf: dst, off: len(dst)}
	obj.Pup(pk)
	dst = pk.buf[:pk.off]
	pk.buf = nil
	putCursor(pk)
	return dst
}

// bufPool recycles pack buffers (as *[]byte to keep Put allocation-free in
// the common already-pooled case).
var bufPool sync.Pool

// GetBuffer returns a zero-length buffer from the pack-buffer pool; grow it
// through PackTo and return it with PutBuffer.
func GetBuffer() []byte {
	if b, ok := bufPool.Get().(*[]byte); ok {
		return (*b)[:0]
	}
	return nil
}

// PutBuffer returns a buffer (typically the result of PackTo on a GetBuffer
// buffer) to the pool. The caller must not retain it.
func PutBuffer(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
}

// Unpack restores obj from data, returning an error if the Pup method does
// not consume the buffer exactly.
func Unpack(data []byte, obj Pupable) (err error) {
	up := getCursor()
	*up = Pup{mode: Unpacking, buf: data}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pup: unpack: %v", r)
		}
		up.buf = nil
		putCursor(up)
	}()
	obj.Pup(up)
	if up.off != len(data) {
		return fmt.Errorf("pup: unpack consumed %d of %d bytes", up.off, len(data))
	}
	return nil
}
