// Command simprof runs one deterministic workload in one execution mode
// with the cross-rank causal profiler attached, prints what the
// workload measured, and writes the ranked analysis report:
// critical-path time attribution, inefficiency patterns (late sender,
// late receiver, wait at collective, rendezvous mispredict, ANY_SOURCE
// serialization), per-rank load balance, and any happens-before graph
// inconsistencies.
//
// The workloads:
//
//   - pingpong: Figure 9's blocking ping-pong sweep, -iters round trips
//     per message size; prints bytes, RTT and GB/s per size.
//   - stencil: the five-point stencil of Figures 11 and 12 over -procs
//     ranks, by rows or in a process grid of -cols columns; prints total and
//     per-iteration time and checks the checksum against the serial
//     reference, exiting nonzero on a mismatch. -timing charges compute
//     time without running the math, as the figures do, and so checks
//     nothing.
//   - cg: the Conjugate Gradient application.
//   - showcase: every §IV-B3 protocol path once (eager, sender-first,
//     receiver-first, simultaneous rendezvous, an offload-staged send).
//   - torture: bench.Torture, the seeded 4-rank randomized
//     point-to-point torture core's tests run: directed and ANY_SOURCE
//     rounds over sizes straddling the eager switch, every receive's
//     status and bytes checked (a mismatch fails the run).
//
// -mode selects the execution mode of pingpong, stencil and cg (stencil
// also takes serial: one thread, no MPI); showcase and torture run
// DCFA-MPI.
//
// Usage:
//
//	go run ./cmd/simprof -workload showcase -trace out.json   # open at https://ui.perfetto.dev
//	go run ./cmd/simprof -workload pingpong -mode intel-phi -metrics
//	go run ./cmd/simprof -workload stencil -procs 8 -threads 56 -n 1280 -iters 100 -timing
//	go run ./cmd/simprof -workload stencil -mode host -procs 4 -cols 2 -json -o stencil.causal.json
//	go run ./cmd/simprof -workload torture -faults "seed=7,ib=0.02,cmd=0.02" \
//	    -trace torture.perfetto.json -check
//
// Recording is passive, so a profiled run has the same fingerprint as
// an unprofiled one, and two invocations with the same flags produce
// byte-identical output. -trace writes the run's message-lifecycle
// spans with causal flow arrows as Chrome trace-event JSON; -metrics
// prints the telemetry summary (protocol counts, MR-cache hit rate,
// RDMA bytes per direction pair, latency histograms) after the report.
// With -check, the exit status is nonzero when the happens-before graph
// is inconsistent (unmatched sends/receives, orphan packets, cycles) or
// message-lifecycle spans were left open — the CI regression gate for
// the event instrumentation.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/causal"
	"repro/internal/cg"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/stencil"
)

func main() {
	workload := flag.String("workload", "showcase", "workload: pingpong | torture | showcase | stencil | cg")
	mode := flag.String("mode", "dcfa", "execution mode of pingpong, stencil and cg: dcfa, dcfa-nooffload, host, intel-phi, intel-host-offload, intel-symmetric, or serial (stencil only: one thread, no MPI)")
	seed := flag.Uint64("seed", 7, "torture workload seed")
	faultSpec := flag.String("faults", "", "deterministic fault plan, e.g. \"seed=7,ib=0.02,cmd=0.02\"")
	out := flag.String("o", "", "write the report to this file instead of stdout")
	asJSON := flag.Bool("json", false, "emit the report as JSON instead of text")
	tracePath := flag.String("trace", "", "also write a Perfetto trace with causal flow events to this file")
	showMetrics := flag.Bool("metrics", false, "print the telemetry summary after the report")
	check := flag.Bool("check", false, "exit nonzero on graph inconsistencies or open spans")
	rounds := flag.Int("torture-rounds", 6, "torture rounds")
	msgs := flag.Int("torture-msgs", 16, "messages per torture round")
	procs := flag.Int("procs", 4, "stencil/cg process count")
	cols := flag.Int("cols", 0, "stencil process-grid columns (0 or 1: the paper's rows; intel-host-offload runs rows only)")
	threads := flag.Int("threads", 4, "stencil/cg OpenMP threads per process")
	iters := flag.Int("iters", 10, "stencil iterations / cg max iterations / pingpong round trips per size")
	n := flag.Int("n", 256, "stencil/cg problem size")
	timing := flag.Bool("timing", false, "stencil: charge compute time without running the math, and check no checksum")
	flag.Parse()

	serial := *workload == "stencil" && *mode == "serial"
	m, err := cluster.ParseMode(*mode)
	if err != nil && !serial {
		fatal(err)
	}
	if m != cluster.ModeDCFA && (*workload == "torture" || *workload == "showcase") {
		fatal(fmt.Errorf("-mode applies to pingpong, stencil and cg; %s runs dcfa", *workload))
	}

	plat := perfmodel.Default()
	rec := causal.New()
	reg := metrics.New()
	env := bench.NewEnv()
	env.Metrics, env.Causal = reg, rec
	if *faultSpec != "" {
		if env.Faults, err = faults.Parse(*faultSpec); err != nil {
			fatal(err)
		}
	}
	// The workload's own lines precede the report on stdout; with -json
	// and no -o they go to stderr, so stdout is one JSON document.
	info := os.Stdout
	if *asJSON && *out == "" {
		info = os.Stderr
	}

	var end sim.Time
	failed := false
	switch *workload {
	case "pingpong":
		if *iters < 1 {
			fatal(fmt.Errorf("pingpong: -iters %d, need at least one round trip", *iters))
		}
		sizes := bench.MsgSizes()
		rtts := env.BlockingPingPongRTTs(plat, m, sizes, *iters)
		fmt.Fprintf(info, "blocking ping-pong, mode=%s (%d iterations per size)\n", m, *iters)
		fmt.Fprintf(info, "%10s %14s %12s\n", "bytes", "RTT", "GB/s")
		for i, size := range sizes {
			bw := float64(size) / (float64(rtts[i]/2) / float64(sim.Second)) / 1e9
			fmt.Fprintf(info, "%10d %14v %12.3f\n", size, rtts[i], bw)
		}
		// The sweep builds its own world; it ends at its last event.
		if evs := rec.Events(); len(evs) > 0 {
			end = evs[len(evs)-1].T
		}
	case "torture":
		if *rounds < 1 || *msgs < 1 {
			fatal(fmt.Errorf("torture: -torture-rounds %d -torture-msgs %d, need at least one message", *rounds, *msgs))
		}
		res, err := env.TortureFlood(plat, *seed, *rounds, *msgs)
		if err != nil {
			fatal(err)
		}
		end = res.SimTime
	case "showcase":
		if end, err = env.ProtocolShowcase(plat); err != nil {
			fatal(err)
		}
	case "stencil":
		pr := stencil.Params{N: *n, Iters: *iters, Procs: *procs, Cols: *cols, Threads: *threads, SkipCompute: *timing}
		shape := fmt.Sprintf("mode=%s procs=%d", m, *procs)
		if *cols > 1 {
			shape += fmt.Sprintf(" cols=%d", *cols)
		}
		var res stencil.Result
		if serial {
			pr.Procs, pr.Cols, pr.Threads = 1, 1, 1
			shape = "mode=serial procs=1"
			res, err = stencil.RunSerial(plat, pr)
			end = res.Total
		} else if err = pr.Validate(); err == nil {
			c := env.Cluster(plat, m.Nodes(pr.Procs))
			res, err = stencil.Run(c, m, pr)
			end = c.Eng.Now()
		}
		if err != nil {
			fatal(err)
		}
		line := fmt.Sprintf("%s threads=%d n=%d iters=%d total=%v per-iteration=%v", shape, pr.Threads, *n, *iters, res.Total, res.PerIter)
		if !*timing {
			// The serial reference, summed in the run's rank-blocked order.
			ref := stencil.ReferenceChecksum(stencil.Reference(pr), pr)
			status := "OK"
			if res.Checksum != ref {
				status, failed = "MISMATCH", true
			}
			line += fmt.Sprintf(" checksum=%.10g reference=%.10g [%s]", res.Checksum, ref, status)
		}
		fmt.Fprintln(info, line)
	case "cg":
		pr := cg.Params{N: *n, MaxIter: *iters, Tol: 1e-10, Procs: *procs, Threads: *threads}
		if err := pr.Validate(); err != nil {
			fatal(err)
		}
		c := env.Cluster(plat, m.Nodes(pr.Procs))
		if _, err := cg.RunWorld(c.World(m, pr.Procs), pr); err != nil {
			fatal(err)
		}
		end = c.Eng.Now()
	default:
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}

	rep := causal.Analyze(*workload, rec.Events(), end)

	var buf bytes.Buffer
	if *asJSON {
		err = rep.WriteJSON(&buf)
	} else {
		err = rep.WriteText(&buf)
	}
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		_, err = buf.WriteTo(os.Stdout)
	} else {
		err = writeFile(*out, func(w io.Writer) error { _, err := buf.WriteTo(w); return err })
	}
	if err != nil {
		fatal(err)
	}
	if *tracePath != "" {
		if err := writeFile(*tracePath, func(w io.Writer) error { return rep.WriteTrace(w, reg) }); err != nil {
			fatal(err)
		}
	}
	if *showMetrics {
		fmt.Fprintln(info)
		reg.WriteSummary(info)
	}

	if *check {
		if n := len(rep.Issues); n > 0 {
			fmt.Fprintf(os.Stderr, "simprof: %d happens-before graph inconsistencies\n", n)
			for _, is := range rep.Issues {
				fmt.Fprintf(os.Stderr, "  [%s] %s\n", is.Kind, is.Msg)
			}
			failed = true
		}
		if open := reg.OpenSpans(); open != 0 {
			fmt.Fprintf(os.Stderr, "simprof: %d message-lifecycle spans left open\n", open)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// writeFile creates path and writes one output to it, returning the
// write's error or else the close's.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simprof:", err)
	os.Exit(1)
}
