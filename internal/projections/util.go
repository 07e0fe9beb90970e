package projections

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"charmgo/internal/charm"
	"charmgo/internal/des"
)

// Utilization is the per-window, per-PE busy-fraction table of a trace —
// the continuously collected performance data the introspective control
// system of §III-E runs on. It marshals to the `-trace` JSON export.
type Utilization struct {
	Interval des.Time     `json:"interval_seconds"`
	NumPEs   int          `json:"num_pes"`
	Samples  []UtilSample `json:"samples"`
}

// UtilSample is one observation window.
type UtilSample struct {
	At   des.Time  `json:"t"`    // the window's end
	Util []float64 `json:"util"` // per-PE busy fraction of the window
	Msgs uint64    `json:"msgs"` // element entry methods begun in the window
}

// Utilization computes the table over everything the tracer still holds.
func (t *Tracer) Utilization(interval des.Time) Utilization {
	return ComputeUtilization(t.Events(), t.rt.MaxPEs(), interval)
}

// ComputeUtilization cuts the span of the entry-method executions the trace
// holds into windows of the given length and apportions each execution's
// busy time across the windows it spans. Every window is numPEs wide
// whatever the active PE count was (an evacuated PE reads as idle); the last
// window may be partial, so per PE Σ Util×Interval is exactly the traced busy
// time.
func ComputeUtilization(events []Event, numPEs int, interval des.Time) Utilization {
	u := Utilization{Interval: interval, NumPEs: numPEs}
	first, last := des.Forever, des.Time(-1)
	for _, e := range events {
		if e.Kind == charm.KEntryBegin || e.Kind == charm.KEntryEnd {
			first, last = min(first, e.At), max(last, e.At)
		}
	}
	if last < first || interval <= 0 {
		return u
	}
	window := func(at des.Time) int { return int(math.Floor(float64(at / interval))) }
	w0 := window(first)
	u.Samples = make([]UtilSample, window(last)-w0+1)
	for i := range u.Samples {
		u.Samples[i] = UtilSample{At: des.Time(w0+i+1) * interval, Util: make([]float64, numPEs)}
	}
	open := make([]des.Time, numPEs) // begin time of each PE's running entry
	for p := range open {
		open[p] = -1
	}
	for _, e := range events {
		if e.PE < 0 || e.PE >= numPEs {
			continue
		}
		switch e.Kind {
		case charm.KEntryBegin:
			open[e.PE] = e.At
			if e.Arr != "" {
				u.Samples[window(e.At)-w0].Msgs++
			}
		case charm.KEntryEnd:
			b := open[e.PE]
			if b < 0 {
				continue // begin older than the log
			}
			open[e.PE] = -1
			for w := window(b); w <= window(e.At); w++ {
				lo, hi := max(b, des.Time(w)*interval), min(e.At, des.Time(w+1)*interval)
				if hi > lo { // a window edge can round an ulp past its neighbour
					u.Samples[w-w0].Util[e.PE] += float64((hi - lo) / interval)
				}
			}
		}
	}
	return u
}

// HottestPE returns the PE with the highest cumulative utilization and its
// mean busy fraction, or -1 for an empty table.
func (u Utilization) HottestPE() (pe int, util float64) {
	if len(u.Samples) == 0 || u.NumPEs == 0 {
		return -1, 0
	}
	sums := make([]float64, u.NumPEs)
	for _, s := range u.Samples {
		for p, v := range s.Util {
			sums[p] += v
		}
	}
	for p, s := range sums {
		if s > sums[pe] {
			pe = p
		}
	}
	return pe, sums[pe] / float64(len(u.Samples))
}

// Summary renders a per-window table: time, mean/min/max utilization,
// message throughput.
func (u Utilization) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-8s %-8s %-8s %s\n", "t(s)", "mean", "min", "max", "msgs")
	for _, s := range u.Samples {
		mean, lo, hi := 0.0, 1.0, 0.0
		for _, v := range s.Util {
			mean += v
			lo, hi = min(lo, v), max(hi, v)
		}
		if len(s.Util) > 0 {
			mean /= float64(len(s.Util))
		}
		fmt.Fprintf(&b, "%-10.4f %-8.2f %-8.2f %-8.2f %d\n", float64(s.At), mean, lo, hi, s.Msgs)
	}
	return b.String()
}

// utilGlyphs maps utilization to density characters.
var utilGlyphs = []rune(" .:-=+*#%@")

// Timeline renders an ASCII utilization heat map: one row per PE (up to
// maxPEs rows, aggregating if there are more), one column per window.
func (u Utilization) Timeline(maxPEs int) string {
	if len(u.Samples) == 0 {
		return "(no samples)\n"
	}
	n, group := u.NumPEs, 1
	if maxPEs > 0 && n > maxPEs {
		group = (n + maxPEs - 1) / maxPEs
	}
	var b strings.Builder
	for lo := 0; lo < n; lo += group {
		hi := min(lo+group, n)
		suffix := "     "
		if hi-lo > 1 {
			suffix = fmt.Sprintf("-%-4d", hi-1)
		}
		fmt.Fprintf(&b, "PE%4d%s |", lo, suffix)
		for _, s := range u.Samples {
			v := 0.0
			for _, x := range s.Util[lo:hi] {
				v += x
			}
			g := int(v / float64(hi-lo) * float64(len(utilGlyphs)-1))
			b.WriteRune(utilGlyphs[min(g, len(utilGlyphs)-1)])
		}
		b.WriteString("|\n")
	}
	return b.String()
}

// WriteJSON exports the table for external visualization tools.
func (u Utilization) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(u)
}
