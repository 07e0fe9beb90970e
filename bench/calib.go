package main

import "time"

// The host this benchmark runs on is shared: its memory system slows down
// and recovers over seconds to minutes, by 10-25% on the reference sandbox,
// while pure arithmetic stays within 4%. Raw wall time then spreads more
// between two runs of one commit than most changes move it. So each
// repetition is preceded by a calibration kernel, and wall_s and setup_s
// are reported in calibrated seconds: raw seconds times calNominalS over
// the kernel's own time just before. The kernel shares no code with the
// system under test, so a change to charmgo moves the calibrated metrics
// exactly as it moves the raw ones; raw seconds and calibration times stay
// in the report.
//
// The kernel's mix was chosen by measurement. Of streaming, pointer
// chasing, allocation churn and integer arithmetic, interleaved with every
// workload for 18 minutes, streaming plus churn in equal parts tracked the
// workloads best (worst workload: 6.5% spread of ten-repetition medians,
// against 13% raw and 10% for a chase-dominated mix); arithmetic alone
// tracked nothing. But the workloads are not purely memory-bound: over ten
// runs of each, their time followed a purely memory-bound kernel's to the
// power 0.75, not 1. So about a quarter of the kernel is arithmetic, which
// took the worst workload's spread from 8% to 5.5%.

// calNominalS is the calibration kernel's time on a quiet reference
// sandbox. On a host where it takes exactly this long, calibrated seconds
// are raw seconds.
const calNominalS = 0.055

// calibrator is the kernel's working set: two streamed arrays of 16 MB,
// larger than the last-level cache share and pointer-free, and a ring of
// 32k small objects (about 10 MB) that the churn keeps replacing. It is
// allocated once per process, is live only while no simulated world is, and
// is part of live_heap_mb on every workload and both sides of a comparison.
type calibrator struct {
	a, b []float64
	ring [][]byte
	sink uint64
}

func newCalibrator() *calibrator {
	const n = 2 << 20
	c := &calibrator{a: make([]float64, n), b: make([]float64, n), ring: make([][]byte, 32<<10)}
	for i := range c.a {
		c.a[i] = float64(i & 1023)
	}
	for i := range c.ring {
		c.ring[i] = make([]byte, 64+(i*37)&511)
	}
	return c
}

// run times one pass of the kernel: six streaming three-point smoothing
// passes (Stencil2D's access pattern and every large PUP copy's), then 200k
// allocations of 64 to 575 bytes (64 MB) into the ring, which takes the
// allocator and the concurrent collector through a cycle as the simulated
// runs do. Callers collect first, so the heap is the kernel's own 42 MB:
// the collector then starts once, some 40 MB into the churn, and a second
// cycle is not due before the churn ends. A volume that ended near a
// cycle boundary made the kernel bimodal. Last come 8M dependent integer
// steps, the arithmetic quarter.
func (c *calibrator) run() time.Duration {
	t0 := time.Now()
	for pass := 0; pass < 6; pass++ {
		a, b := c.a, c.b
		for i := 1; i < len(a)-1; i++ {
			b[i] = 0.25 * (a[i-1] + 2*a[i] + a[i+1])
		}
		c.a, c.b = b, a
	}
	for i := 0; i < 200000; i++ {
		c.ring[i&(len(c.ring)-1)] = make([]byte, 64+(i*37)&511)
	}
	c.sink = spin(c.sink|1, 8_000_000)
	return time.Since(t0)
}
