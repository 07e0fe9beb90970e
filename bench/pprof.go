package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzip-compressed profile.proto that
// runtime/pprof writes, covering only what layer attribution needs:
// samples (location ids and values), locations (their lines, innermost
// inlined function first), functions (name index) and the string table.

// protoFields calls fn for every field of a protobuf message. Varint
// fields arrive in v with data nil; length-delimited fields in data.
func protoFields(buf []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return fmt.Errorf("pprof: bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return fmt.Errorf("pprof: bad varint in field %d", num)
			}
			buf = buf[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return fmt.Errorf("pprof: short fixed64 in field %d", num)
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return fmt.Errorf("pprof: bad length in field %d", num)
			}
			if err := fn(num, 0, buf[n:n+int(l)]); err != nil {
				return err
			}
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return fmt.Errorf("pprof: short fixed32 in field %d", num)
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d in field %d", wire, num)
		}
	}
	return nil
}

// repeatedUvarint appends a repeated integer field's values, which arrive
// either packed (data) or one at a time (v).
func repeatedUvarint(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("pprof: bad packed varint")
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

type profSample struct {
	locs   []uint64 // leaf first
	values []uint64
}

// cpuProfile is a decoded CPU profile: each sample's stack as function
// names, leaf first, with its weight in CPU nanoseconds.
type cpuProfile struct {
	stacks  [][]string
	weights []float64
}

func decodeProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	var samples []profSample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]uint64{}   // function id -> string table index
	var strs []string
	err = protoFields(raw, func(num int, _ uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s profSample
			err := protoFields(data, func(num int, v uint64, data []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = repeatedUvarint(s.locs, v, data)
				case 2:
					s.values, err = repeatedUvarint(s.values, v, data)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return protoFields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := protoFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					stack = append(stack, strs[idx])
				}
			}
		}
		p.stacks = append(p.stacks, stack)
		p.weights = append(p.weights, float64(s.values[len(s.values)-1])) // cpu/nanoseconds
	}
	return p, nil
}

// cpuLayers are the buckets of <layer>.cpu_share, in report order. The
// named layers are packages under charmgo/internal; "other" takes every
// other charmgo package, "bench" this driver; go_gc_bg and go_idle take
// the stacks with no charmgo frame at all.
var cpuLayers = []string{"des", "parsim", "optsim", "charm", "pup", "lb", "ckpt", "projections",
	"telemetry", "machine", "tram", "apps", "chaos", "bench", "other", "go_gc_bg", "go_idle"}

// layerOf maps a function name to the layer that owns it, or "" for a
// function outside charmgo (the Go runtime and standard library).
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "charmgo/bench.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "charmgo/internal/")
	if !ok {
		if strings.HasPrefix(fn, "charmgo") {
			return "other"
		}
		return ""
	}
	if strings.HasPrefix(rest, "projections/metrics.") {
		return "other" // the registry every layer counts into, not the tracer
	}
	pkg := rest[:strings.IndexAny(rest+".", "/.")]
	for _, l := range cpuLayers[:13] {
		if pkg == l {
			return l
		}
	}
	return "other"
}

// charge adds each sample's weight to the deepest frame that belongs to a
// charmgo layer, so Go-runtime work (malloc, maps, memmove, GC assists)
// lands on the layer that caused it. Stacks with no charmgo frame are the
// collector's background workers (go_gc_bg) or scheduler idling and
// everything else (go_idle).
func (p *cpuProfile) charge(into map[string]float64) {
	for i, stack := range p.stacks {
		layer := ""
		for _, fn := range stack {
			if layer = layerOf(fn); layer != "" {
				break
			}
		}
		if layer == "" {
			layer = "go_idle"
			for _, fn := range stack {
				if fn == "runtime.gcBgMarkWorker" || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" {
					layer = "go_gc_bg"
					break
				}
			}
		}
		into[layer] += p.weights[i]
	}
}
