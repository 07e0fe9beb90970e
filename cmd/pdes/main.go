// Command pdes runs the PHOLD benchmark under the YAWNS conservative
// protocol, reporting committed events, window counts, and event rate,
// optionally through TRAM.
//
// It exits 2 on a usage error, before running anything, and 1 when the run
// fails.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"charmgo/internal/charm"
	"charmgo/internal/machine"

	"charmgo/internal/apps/pdes"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams passed in.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pdes", flag.ContinueOnError)
	fs.SetOutput(stderr)
	pes := fs.Int("pes", 32, "processing elements")
	lpsPerPE := fs.Int("lps", 64, "logical processes per PE")
	events := fs.Int("events", 16, "initial events per LP")
	target := fs.Int("target", 0, "events to commit (default 4x the population)")
	tram := fs.Bool("tram", false, "aggregate events with TRAM")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	for _, f := range []struct {
		name   string
		v, min int
	}{{"pes", *pes, 1}, {"lps", *lpsPerPE, 1}, {"events", *events, 1}, {"target", *target, 0}} {
		if f.v < f.min {
			fmt.Fprintf(stderr, "pdes: -%s %d out of range (want >= %d)\n", f.name, f.v, f.min)
			return 2
		}
	}

	rt := charm.New(machine.New(machine.Stampede(*pes)))
	app, err := pdes.New(rt, pdes.Config{
		LPs: *pes * *lpsPerPE, EventsPerLP: *events,
		TargetEvents: *target, UseTram: *tram, Seed: 1,
	})
	var res *pdes.Result
	if err == nil {
		res, err = app.Run()
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "LPs: %d   initial events/LP: %d   TRAM: %v\n", *pes**lpsPerPE, *events, *tram)
	fmt.Fprintf(stdout, "committed events: %d over %d YAWNS windows\n", res.Committed, res.Windows)
	fmt.Fprintf(stdout, "virtual time: %.4f s   event rate: %.0f events/s   max VT: %.1f\n",
		float64(res.Elapsed), res.EventRate, res.MaxVT)
	if *tram {
		st := app.TramStats()
		fmt.Fprintf(stdout, "TRAM: %d items in %d messages (%.1f items/msg), %d timed flushes\n",
			st.ItemsSubmitted, st.MsgsSent,
			float64(st.ItemsSubmitted)/float64(st.MsgsSent), st.TimedFlushes)
	}
	return 0
}
