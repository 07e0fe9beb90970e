package stencil

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceSweep is the block update as it was written before the row
// sweep: every load recomputes its index through at, and a second pass
// copies New's interior back into Cur. sweep must match it bit for bit.
func referenceSweep(b *block) float64 {
	at := func(x, y int) float64 { return b.Cur[y*(b.B+2)+x] }
	bsz := b.B
	var residual float64
	for y := 1; y <= bsz; y++ {
		for x := 1; x <= bsz; x++ {
			v := 0.25 * (at(x-1, y) + at(x+1, y) + at(x, y-1) + at(x, y+1))
			d := v - at(x, y)
			residual += d * d
			b.New[y*(bsz+2)+x] = v
		}
	}
	for y := 1; y <= bsz; y++ {
		copy(b.Cur[y*(bsz+2)+1:y*(bsz+2)+1+bsz], b.New[y*(bsz+2)+1:y*(bsz+2)+1+bsz])
	}
	return residual
}

// randomValue draws an ordinary value or, when special, one from a mix
// that adds signed zeros, subnormals and large magnitudes (kept below
// 1e150 so a squared difference stays finite and the residual keeps
// discriminating).
func randomValue(rng *rand.Rand, special bool) float64 {
	sign := 1.0
	if rng.Intn(2) == 0 {
		sign = -1
	}
	kind := 4
	if special {
		kind = rng.Intn(6)
	}
	switch kind {
	case 0:
		return sign * 0
	case 1:
		return sign * math.Float64frombits(uint64(rng.Int63n(1<<52-1)+1)) // subnormal
	case 2:
		return sign * math.Ldexp(1+rng.Float64(), 300+rng.Intn(190)) // ≈ 1e90 … 1e148
	default:
		return sign * rng.Float64() * math.Pow(10, float64(rng.Intn(9)-4))
	}
}

func randomBlock(rng *rand.Rand, bsz int, special bool) *block {
	n := (bsz + 2) * (bsz + 2)
	b := &block{B: bsz, Cur: make([]float64, n), New: make([]float64, n)}
	for i := range b.Cur {
		b.Cur[i] = randomValue(rng, special)
		b.New[i] = randomValue(rng, special) // stale contents, and a ghost ring neither update may write
	}
	return b
}

func cloneBlock(b *block) *block {
	c := *b
	c.Cur = append([]float64(nil), b.Cur...)
	c.New = append([]float64(nil), b.New...)
	return &c
}

func TestSweepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bsz := range []int{1, 2, 3, 8, 64, 129} {
		for trial := 0; trial < 8; trial++ {
			got := randomBlock(rng, bsz, trial%2 == 1)
			want := cloneBlock(got)
			// Three updates in a row: the later ones start from a Cur the
			// earlier ones wrote back.
			for it := 0; it < 3; it++ {
				r, wr := got.sweep(), referenceSweep(want)
				if math.Float64bits(r) != math.Float64bits(wr) {
					t.Fatalf("B=%d trial %d iteration %d: residual %v, reference %v", bsz, trial, it, r, wr)
				}
				for _, s := range []struct {
					name      string
					got, want []float64
				}{{"Cur", got.Cur, want.Cur}, {"New", got.New, want.New}} {
					for i := range s.want {
						if math.Float64bits(s.got[i]) != math.Float64bits(s.want[i]) {
							t.Fatalf("B=%d trial %d iteration %d: %s[%d] (x=%d y=%d) = %v, reference %v",
								bsz, trial, it, s.name, i, i%(bsz+2), i/(bsz+2), s.got[i], s.want[i])
						}
					}
				}
			}
		}
	}
}

// sweepSink keeps the benchmarked residual live.
var sweepSink float64

// BenchmarkJacobiSweep measures the block update alone on a block with a
// hot left wall, reporting its cost per interior point.
func BenchmarkJacobiSweep(b *testing.B) {
	for _, bsz := range []int{64, 512} {
		b.Run(fmt.Sprintf("B=%d", bsz), func(b *testing.B) {
			n := (bsz + 2) * (bsz + 2)
			blk := &block{B: bsz, Cur: make([]float64, n), New: make([]float64, n)}
			for y := 1; y <= bsz; y++ {
				blk.Cur[y*(bsz+2)] = 100
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweepSink = blk.sweep()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bsz*bsz), "ns/point")
		})
	}
}
