package projections

import (
	"fmt"
	"strconv"
	"strings"

	"charmgo/internal/ccs"
)

// InstallCCS registers a "trace" handler on a CCS server for live queries
// against a running traced job:
//
//	{"handler":"trace","args":"summary"}      full text report
//	{"handler":"trace","args":"profile 5"}    top-5 usage profile
//	{"handler":"trace","args":"critical"}     critical path
//	{"handler":"trace","args":"metrics"}      metrics snapshot
//	{"handler":"trace","args":"events 20"}    last 20 events, rendered
//
// CCS handlers run on the simulation goroutine, so reads are consistent.
func InstallCCS(s *ccs.Server, t *Tracer) {
	s.Register("trace", func(args string) (string, error) {
		fields := strings.Fields(args)
		cmd := "summary"
		if len(fields) > 0 {
			cmd = fields[0]
		}
		n := 10
		if len(fields) > 1 {
			v, err := strconv.Atoi(fields[1])
			if err != nil || v <= 0 {
				return "", fmt.Errorf("trace: bad count %q", fields[1])
			}
			n = v
		}
		var b strings.Builder
		switch cmd {
		case "summary":
			if err := t.WriteSummary(&b, n); err != nil {
				return "", err
			}
		case "profile":
			prof := Profile(t.Events())
			for i, s := range prof {
				if i >= n {
					break
				}
				fmt.Fprintf(&b, "%s calls=%d total=%.9fs max=%.9fs\n",
					s.Name, s.Calls, float64(s.Time), float64(s.Max))
			}
		case "critical":
			cp := ComputeCriticalPath(t.Events())
			fmt.Fprintf(&b, "work=%.9fs hops=%d span=%.9fs\n",
				float64(cp.Work), cp.Hops, float64(cp.Span))
		case "metrics":
			if err := t.Metrics().WriteText(&b); err != nil {
				return "", err
			}
		case "events":
			events := t.Events()
			for _, e := range events[max(0, len(events)-n):] {
				fmt.Fprintf(&b, "#%d t=%.9fs pe=%d %s %s ref=%d\n",
					e.ID, float64(e.At), e.PE, e.Kind, e.Name(), e.Ref)
			}
		default:
			return "", fmt.Errorf("trace: unknown query %q (want summary|profile|critical|metrics|events)", cmd)
		}
		return b.String(), nil
	})
}
