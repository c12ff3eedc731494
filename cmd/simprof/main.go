// Command simprof runs a deterministic workload with the cross-rank
// causal profiler attached and writes the ranked analysis report:
// critical-path time attribution, inefficiency patterns (late sender,
// late receiver, wait at collective, rendezvous mispredict, ANY_SOURCE
// serialization), per-rank load balance, and any happens-before graph
// inconsistencies.
//
// Usage:
//
//	go run ./cmd/simprof -workload showcase
//	go run ./cmd/simprof -workload stencil -procs 4 -json -o stencil.causal.json
//	go run ./cmd/simprof -workload torture -faults "seed=7,ib=0.02,cmd=0.02" \
//	    -trace torture.perfetto.json -check
//
// Recording is passive, so a profiled run has the same fingerprint as
// an unprofiled one, and two invocations with the same flags produce
// byte-identical reports. With -check, the exit status is nonzero when
// the happens-before graph is inconsistent (unmatched sends/receives,
// orphan packets, cycles) or message-lifecycle spans were left open —
// the CI regression gate for the event instrumentation.
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
	seed := flag.Uint64("seed", 7, "torture workload seed")
	faultSpec := flag.String("faults", "", "deterministic fault plan, e.g. \"seed=7,ib=0.02,cmd=0.02\"")
	out := flag.String("o", "", "write the report to this file instead of stdout")
	asJSON := flag.Bool("json", false, "emit the report as JSON instead of text")
	tracePath := flag.String("trace", "", "also write a Perfetto trace with causal flow events to this file")
	check := flag.Bool("check", false, "exit nonzero on graph inconsistencies or open spans")
	ppSize := flag.Int("pp-size", 1024, "pingpong message size in bytes")
	ppIters := flag.Int("pp-iters", 200, "pingpong round trips")
	rounds := flag.Int("torture-rounds", 6, "torture rounds")
	msgs := flag.Int("torture-msgs", 16, "messages per torture round")
	procs := flag.Int("procs", 4, "stencil/cg process count")
	iters := flag.Int("iters", 10, "stencil iterations / cg max iterations")
	n := flag.Int("n", 256, "stencil/cg problem size")
	flag.Parse()

	plat := perfmodel.Default()
	rec := causal.New()
	reg := metrics.New()
	env := &bench.Env{Metrics: reg, Causal: rec}
	if *faultSpec != "" {
		var err error
		if env.Faults, err = faults.Parse(*faultSpec); err != nil {
			fatal(err)
		}
	}

	var end sim.Time
	switch *workload {
	case "pingpong":
		res, err := env.PingPongFlood(plat, *ppSize, *ppIters)
		if err != nil {
			fatal(err)
		}
		end = res.SimTime
	case "torture":
		res, err := env.TortureFlood(plat, *seed, *rounds, *msgs)
		if err != nil {
			fatal(err)
		}
		end = res.SimTime
	case "showcase":
		var err error
		end, err = env.ProtocolShowcase(plat)
		if err != nil {
			fatal(err)
		}
	case "stencil":
		c := env.Cluster(plat, *procs)
		pr := stencil.Params{N: *n, Iters: *iters, Procs: *procs, Threads: 4}
		if _, err := stencil.Run(c, cluster.ModeDCFA, pr); err != nil {
			fatal(err)
		}
		end = c.Eng.Now()
	case "cg":
		c := env.Cluster(plat, *procs)
		pr := cg.Params{N: *n, MaxIter: *iters, Tol: 1e-10, Procs: *procs, Threads: 4}
		if _, err := cg.RunWorld(c.World(cluster.ModeDCFA, *procs), pr); err != nil {
			fatal(err)
		}
		end = c.Eng.Now()
	default:
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}

	rep := causal.Analyze(*workload, rec.Events(), end)

	var buf bytes.Buffer
	var err error
	if *asJSON {
		err = rep.WriteJSON(&buf)
	} else {
		err = rep.WriteText(&buf)
	}
	if err != nil {
		fatal(err)
	}
	var dst io.Writer = os.Stdout
	if *out != "" {
		f, ferr := os.Create(*out)
		if ferr != nil {
			fatal(ferr)
		}
		defer f.Close()
		dst = f
	}
	if _, err := dst.Write(buf.Bytes()); err != nil {
		fatal(err)
	}

	if *tracePath != "" {
		f, ferr := os.Create(*tracePath)
		if ferr != nil {
			fatal(ferr)
		}
		if err := rep.WriteTrace(f, reg); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	if *check {
		bad := false
		if n := len(rep.Issues); n > 0 {
			fmt.Fprintf(os.Stderr, "simprof: %d happens-before graph inconsistencies\n", n)
			for _, is := range rep.Issues {
				fmt.Fprintf(os.Stderr, "  [%s] %s\n", is.Kind, is.Msg)
			}
			bad = true
		}
		if open := reg.OpenSpans(); open != 0 {
			fmt.Fprintf(os.Stderr, "simprof: %d message-lifecycle spans left open\n", open)
			bad = true
		}
		if bad {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simprof:", err)
	os.Exit(1)
}
