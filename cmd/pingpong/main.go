// Command pingpong runs a blocking MPI ping-pong between two ranks in
// any execution mode and prints the latency/bandwidth sweep. With
// -trace it also dumps the protocol timeline of a single 64 KiB
// exchange (which §IV-B3 protocol ran, when the handshake crossed).
//
// With -tracefile it first runs a fixed protocol-showcase workload that
// takes every §IV-B3 path (eager, sender-first, receiver-first,
// simultaneous rendezvous, plus an offload-staged send) and writes its
// message-lifecycle spans as Chrome trace-event JSON — open the file at
// https://ui.perfetto.dev to see ranks, daemons, HCAs and PCIe engines
// as parallel tracks on the virtual-time axis. With -metrics it prints
// the telemetry summary (protocol counts, MR-cache hit rate, RDMA bytes
// per direction pair, latency histograms) after the sweep.
//
// Usage:
//
//	pingpong -mode dcfa|dcfa-nooffload|host|intel-phi|intel-host-offload|intel-symmetric [-iters 10] [-trace]
//	pingpong -mode dcfa -tracefile out.json [-metrics]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// dumpTrace runs one traced 64 KiB blocking transfer and prints the
// protocol timeline.
func dumpTrace(plat *perfmodel.Platform) {
	c := cluster.New(plat, 2)
	cfg := c.Config(cluster.ModeDCFA)
	tr := trace.New(0)
	cfg.Trace = tr
	w := core.NewWorld(c.Eng, plat, cfg, c.Envs(cluster.ModeDCFA, 2))
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		buf := r.Mem(64 << 10)
		if r.ID() == 0 {
			return r.Send(p, 1, 0, core.Whole(buf))
		}
		_, err := r.Recv(p, 0, 0, core.Whole(buf))
		return err
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pingpong: trace run:", err)
		os.Exit(1)
	}
	fmt.Println("protocol timeline of one 64 KiB DCFA-MPI transfer:")
	tr.Dump(os.Stdout)
	fmt.Println("summary:", tr.Summary())
	fmt.Println()
}

// writeShowcaseTrace runs the protocol showcase and writes its spans as
// Chrome trace-event JSON to path.
func writeShowcaseTrace(plat *perfmodel.Platform, path string) {
	reg := metrics.New()
	if _, err := (&bench.Env{Metrics: reg}).ProtocolShowcase(plat); err != nil {
		fmt.Fprintln(os.Stderr, "pingpong: showcase run:", err)
		os.Exit(1)
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pingpong:", err)
		os.Exit(1)
	}
	if err := reg.WriteChromeTrace(f); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pingpong:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote protocol-showcase timeline to %s (open at https://ui.perfetto.dev)\n\n", path)
}

func main() {
	mode := flag.String("mode", "dcfa", "execution mode: dcfa, dcfa-nooffload, host, intel-phi, intel-host-offload, intel-symmetric")
	iters := flag.Int("iters", 10, "iterations per size")
	showTrace := flag.Bool("trace", false, "dump the protocol timeline of one 64 KiB transfer first")
	showMetrics := flag.Bool("metrics", false, "print the telemetry summary after the sweep")
	traceFile := flag.String("tracefile", "", "write a Chrome trace-event JSON timeline of the protocol showcase to this file")
	flag.Parse()

	m, err := cluster.ParseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pingpong:", err)
		os.Exit(2)
	}

	plat := perfmodel.Default()
	if *showTrace {
		dumpTrace(plat)
	}
	if *traceFile != "" {
		writeShowcaseTrace(plat, *traceFile)
	}
	env := bench.NewEnv()
	if *showMetrics {
		env.Metrics = metrics.New()
	}

	rtts := env.BlockingPingPongRTTs(plat, m, env.MsgSizes, *iters)
	fmt.Printf("blocking ping-pong, mode=%s (%d iterations per size)\n", m, *iters)
	fmt.Printf("%10s %14s %12s\n", "bytes", "RTT", "GB/s")
	for i, n := range env.MsgSizes {
		bw := float64(n) / (float64(rtts[i]/2) / float64(sim.Second)) / 1e9
		fmt.Printf("%10d %14v %12.3f\n", n, rtts[i], bw)
	}
	if env.Metrics != nil {
		fmt.Println()
		env.Metrics.WriteSummary(os.Stdout)
	}
}
