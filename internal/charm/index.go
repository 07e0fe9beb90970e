// Package charm implements the migratable-objects runtime at the heart of
// the reproduction: chare arrays, proxies, asynchronous entry methods,
// prioritized message-driven scheduling, scalable location management with
// home PEs and location caches, spanning-tree broadcasts and reductions,
// quiescence detection, AtSync load-balancing hooks, and migration.
//
// The runtime executes on the virtual machine of internal/machine under the
// deterministic event engine of internal/des: entry methods run real Go
// code and charge modeled compute cost, so application results are real
// while timing reflects the configured machine.
package charm

import (
	"cmp"
	"math/bits"
	"strconv"
)

// Index identifies an element within a chare array. It is a comparable
// value that can encode 1-D through 6-D integer indices or the bitvector
// indices used by tree-structured codes such as AMR (§IV-A of the paper).
type Index struct {
	Kind uint8
	A    uint64
	B    uint64
	C    uint64
}

// Index kinds.
const (
	Kind1D uint8 = iota + 1
	Kind2D
	Kind3D
	Kind6D
	KindBitVec
)

// Idx1 builds a 1-D index.
func Idx1(i int) Index { return Index{Kind: Kind1D, A: uint64(int64(i))} }

// Idx2 builds a 2-D index.
func Idx2(i, j int) Index {
	return Index{Kind: Kind2D, A: uint64(int64(i)), B: uint64(int64(j))}
}

// Idx3 builds a 3-D index.
func Idx3(i, j, k int) Index {
	return Index{Kind: Kind3D, A: uint64(int64(i)), B: uint64(int64(j)), C: uint64(int64(k))}
}

// Idx6 builds a 6-D index (e.g. LeanMD pairwise Computes). Each coordinate
// must fit in 21 bits as an unsigned value.
func Idx6(a, b, c, d, e, f int) Index {
	pack3 := func(x, y, z int) uint64 {
		const m = 1<<21 - 1
		return uint64(x&m)<<42 | uint64(y&m)<<21 | uint64(z&m)
	}
	return Index{Kind: Kind6D, A: pack3(a, b, c), B: pack3(d, e, f)}
}

// Dims6 unpacks a 6-D index.
func (ix Index) Dims6() [6]int {
	un := func(v uint64) (int, int, int) {
		const m = 1<<21 - 1
		return int(v >> 42 & m), int(v >> 21 & m), int(v & m)
	}
	var r [6]int
	r[0], r[1], r[2] = un(ix.A)
	r[3], r[4], r[5] = un(ix.B)
	return r
}

// I returns the first coordinate of a 1-3D index.
func (ix Index) I() int { return int(int64(ix.A)) }

// J returns the second coordinate of a 2-3D index.
func (ix Index) J() int { return int(int64(ix.B)) }

// K returns the third coordinate of a 3D index.
func (ix Index) K() int { return int(int64(ix.C)) }

// BitVec builds a bitvector index for oct-tree codes: bits holds 3 bits per
// tree level (child octant), depth is the number of levels. The root is
// BitVec(0, 0).
func BitVec(bits uint64, depth int) Index {
	return Index{Kind: KindBitVec, A: bits, B: uint64(depth)}
}

// Depth returns the tree depth of a bitvector index.
func (ix Index) Depth() int { return int(ix.B) }

// Child returns the bitvector index of child octant o (0..7) — a purely
// local operation, as §IV-A requires.
func (ix Index) Child(o int) Index {
	d := ix.Depth()
	return BitVec(ix.A|uint64(o&7)<<(3*uint(d)), d+1)
}

// Parent returns the bitvector index of the parent block.
func (ix Index) Parent() Index {
	d := ix.Depth()
	if d == 0 {
		return ix
	}
	mask := uint64(1)<<(3*uint(d-1)) - 1
	return BitVec(ix.A&mask, d-1)
}

// Octant returns the child octant of this block within its parent.
func (ix Index) Octant() int {
	d := ix.Depth()
	if d == 0 {
		return 0
	}
	return int(ix.A >> (3 * uint(d-1)) & 7)
}

// Coords converts a bitvector index to spatial block coordinates at its
// depth: octant bit 0 is x, bit 1 is y, bit 2 is z per level.
func (ix Index) Coords() (x, y, z, depth int) {
	d := ix.Depth()
	for l := 0; l < d; l++ {
		o := int(ix.A >> (3 * uint(l)) & 7)
		x = x<<1 | o&1
		y = y<<1 | o>>1&1
		z = z<<1 | o>>2&1
	}
	return x, y, z, d
}

// BitVecFromCoords builds the bitvector index of the block at (x,y,z) at
// the given depth: the inverse of Coords.
func BitVecFromCoords(x, y, z, depth int) Index {
	var b uint64
	for l := depth - 1; l >= 0; l-- {
		o := uint64(x>>uint(l)&1 | y>>uint(l)&1<<1 | z>>uint(l)&1<<2)
		b |= o << (3 * uint(depth-1-l))
	}
	return BitVec(b, depth)
}

// Hash returns a well-mixed 64-bit hash used for home-PE assignment.
func (ix Index) Hash() uint64 {
	h := uint64(ix.Kind)*0x9e3779b97f4a7c15 ^ ix.A
	h = mix(h) ^ ix.B
	h = mix(h) ^ ix.C
	return mix(h)
}

func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Less imposes a deterministic total order on indices, used wherever the
// runtime iterates over elements (checkpointing, LB views).
func (ix Index) Less(o Index) bool { return cmpIndex(ix, o) < 0 }

// cmpIndex is Less as a three-way comparison, for slices.SortFunc.
func cmpIndex(a, b Index) int {
	if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
		return c
	}
	if c := cmp.Compare(a.A, b.A); c != 0 {
		return c
	}
	if c := cmp.Compare(a.B, b.B); c != 0 {
		return c
	}
	return cmp.Compare(a.C, b.C)
}

func (ix Index) String() string { return string(ix.AppendTo(nil)) }

// AppendTo appends the index as String renders it — "[i,j]", "bv[011/1]" —
// without boxing a coordinate, which is how a checkpoint digest renders
// every element's index.
func (ix Index) AppendTo(b []byte) []byte {
	switch ix.Kind {
	case Kind1D:
		return append(appendInts(append(b, '['), ix.I()), ']')
	case Kind2D:
		return append(appendInts(append(b, '['), ix.I(), ix.J()), ']')
	case Kind3D:
		return append(appendInts(append(b, '['), ix.I(), ix.J(), ix.K()), ']')
	case Kind6D:
		d := ix.Dims6()
		b = append(appendInts(append(b, '['), d[0], d[1], d[2]), '|')
		return append(appendInts(b, d[3], d[4], d[5]), ']')
	case KindBitVec:
		d := ix.Depth()
		if d == 0 {
			return append(b, "bv[root]"...)
		}
		v := reverseOctants(ix.A, d)
		b = append(b, "bv["...)
		for w := bits.Len64(v | 1); w < 3*d; w++ { // zero-pad to 3 digits a level
			b = append(b, '0')
		}
		b = strconv.AppendUint(b, v, 2)
		return append(appendInts(append(b, '/'), d), ']')
	}
	b = strconv.AppendUint(append(b, "idx{"...), uint64(ix.Kind), 10)
	for _, v := range [3]uint64{ix.A, ix.B, ix.C} {
		b = strconv.AppendUint(append(b, ','), v, 10)
	}
	return append(b, '}')
}

// appendInts appends vs in decimal, comma-separated.
func appendInts(b []byte, vs ...int) []byte {
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}

func reverseOctants(v uint64, depth int) uint64 {
	var out uint64
	for l := 0; l < depth; l++ {
		out = out<<3 | v>>(3*uint(l))&7
	}
	return out
}

// log2ceil returns ceil(log2(n)) for n >= 1.
func log2ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}
