// Command ccsjob runs a continuously iterating job that external clients
// steer over the CCS TCP interface — the §III-D deployment: a scheduler
// (or a human) shrinks, expands, checkpoints, and inspects the job while
// it runs.
//
// Server:  ccsjob -listen 127.0.0.1:7777
// Client:  ccsjob -connect 127.0.0.1:7777 -cmd shrink -args 32
//
// Handlers: pes, shrink <n>, expand <n>, stats, timeline, trace [query],
// ckpt <path>,
// stop.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"charmgo/internal/ccs"
	"charmgo/internal/charm"
	"charmgo/internal/ckpt"
	"charmgo/internal/lb"
	"charmgo/internal/machine"
	"charmgo/internal/malleable"
	"charmgo/internal/projections"
	"charmgo/internal/pup"
	"charmgo/internal/telemetry"
)

// worker is a self-perpetuating compute chare: the job iterates until told
// to stop, like a long-running simulation awaiting scheduler commands.
type worker struct {
	Iters int64
	Work  float64
}

func (w *worker) Pup(p *pup.Pup) {
	p.Int64(&w.Iters)
	p.Float64(&w.Work)
}

func main() {
	listen := flag.String("listen", "", "serve a steerable job on this address")
	connect := flag.String("connect", "", "send one command to a running job")
	cmd := flag.String("cmd", "stats", "client command")
	args := flag.String("args", "", "client command arguments")
	pes := flag.Int("pes", 64, "server: processing elements")
	objs := flag.Int("objs", 256, "server: worker chares")
	telemetryAddr := flag.String("telemetry", "", "server: serve live introspection (/status, /metrics, /events, pprof) on this address")
	flag.Parse()

	switch {
	case *connect != "":
		client(*connect, *cmd, *args)
	case *listen != "":
		serve(*listen, *pes, *objs, *telemetryAddr)
	default:
		fmt.Fprintln(os.Stderr, "need -listen or -connect; see -help")
		os.Exit(2)
	}
}

func client(addr, cmd, args string) {
	c, err := ccs.Dial(addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer c.Close()
	result, err := c.Call(cmd, args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Println(result)
}

func serve(addr string, pes, objs int, telemetryAddr string) {
	rt := charm.New(machine.New(machine.Stampede(pes)))
	rt.SetBalancer(lb.Greedy{})
	if telemetryAddr != "" {
		tel := telemetry.Attach(rt, telemetry.Options{})
		defer tel.DumpOnPanic()
		tsrv, err := telemetry.Serve(telemetryAddr, tel)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer tsrv.Close()
		fmt.Printf("telemetry: http://%s\n", tsrv.Addr())
	}
	events := projections.Attach(rt, projections.Options{})

	var arr *charm.Array
	stopped := false
	handlers := []charm.Handler{
		func(obj charm.Chare, ctx *charm.Ctx, msg any) {
			w := obj.(*worker)
			w.Iters++
			ctx.Charge(w.Work)
			if !stopped {
				ctx.Send(arr, ctx.Index(), 0, nil)
			}
		},
	}
	arr = rt.DeclareArray("workers", func() charm.Chare { return &worker{} },
		handlers, charm.ArrayOpts{Migratable: true})
	for i := 0; i < objs; i++ {
		arr.Insert(charm.Idx1(i), &worker{Work: 2e-4})
	}
	arr.Broadcast(0, nil)

	mgr := malleable.NewManager(rt)
	srv := ccs.NewServer(rt)
	reconfig := func(args string) (string, error) {
		n, err := strconv.Atoi(args)
		if err != nil {
			return "", err
		}
		if err := mgr.Reconfigure(n); err != nil {
			return "", err
		}
		rt.Rebalance()
		return fmt.Sprintf("job now on %d PEs at t=%.2fs (virtual)", rt.NumPEs(), float64(rt.Now())), nil
	}
	srv.Register("shrink", reconfig)
	srv.Register("expand", reconfig)
	srv.Register("pes", func(string) (string, error) {
		return strconv.Itoa(rt.NumPEs()), nil
	})
	srv.Register("stats", func(string) (string, error) {
		var iters int64
		for _, idx := range arr.Keys() {
			iters += arr.Get(idx).(*worker).Iters
		}
		return fmt.Sprintf("t=%.2fs(virtual) PEs=%d chares=%d iters=%d msgs=%d migrations=%d",
			float64(rt.Now()), rt.NumPEs(), arr.Len(), iters,
			rt.Stats.MsgsDelivered, rt.Stats.Migrations), nil
	})
	srv.Register("timeline", func(string) (string, error) {
		return events.Utilization(0.05).Timeline(16), nil
	})
	projections.InstallCCS(srv, events)
	srv.Register("ckpt", func(path string) (string, error) {
		if path == "" {
			return "", fmt.Errorf("ckpt needs a file path argument")
		}
		snap := ckpt.Capture(rt)
		if err := snap.Save(path); err != nil {
			return "", err
		}
		return fmt.Sprintf("checkpointed %d bytes to %s", snap.TotalBytes(), path), nil
	})
	srv.Register("stop", func(string) (string, error) {
		stopped = true
		return "stopping after the current iterations drain", nil
	})

	bound, err := srv.Listen(addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer srv.Close()
	fmt.Printf("steerable job on %s (%d PEs, %d chares); commands: pes shrink expand stats timeline trace ckpt stop\n",
		bound, rt.NumPEs(), arr.Len())
	srv.Drive(0.05, func() bool { return stopped && rt.Engine().Pending() == 0 })
	fmt.Printf("job stopped at t=%.2fs (virtual)\n", float64(rt.Now()))
}
