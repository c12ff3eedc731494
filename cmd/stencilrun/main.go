// Command stencilrun executes the five-point stencil experiment in one
// configuration and reports timing (and the verified checksum when
// -verify is set).
//
// Usage:
//
//	stencilrun -mode dcfa -procs 8 -threads 56 -iters 100
//	stencilrun -mode intel-host-offload -procs 4 -threads 28 -verify -n 256 -iters 10
//	stencilrun -mode serial -iters 100
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/perfmodel"
	"repro/internal/stencil"
)

func main() {
	mode := flag.String("mode", "dcfa", "dcfa, dcfa-nooffload, host, intel-phi, intel-host-offload, intel-symmetric, or serial (one thread, no MPI)")
	procs := flag.Int("procs", 8, "MPI processes (1D decomposition)")
	px := flag.Int("px", 0, "process-grid columns (enables the 2D decomposition with -py; the grid lives where the mode's ranks run)")
	py := flag.Int("py", 0, "process-grid rows")
	threads := flag.Int("threads", 56, "OpenMP threads per process")
	iters := flag.Int("iters", 100, "iterations")
	n := flag.Int("n", 1280, "interior grid dimension")
	verify := flag.Bool("verify", false, "run the real math and check against the serial reference")
	flag.Parse()

	plat := perfmodel.Default()
	var (
		m   cluster.Mode
		err error
	)
	if *mode == "serial" {
		*procs, *threads = 1, 1
	} else if m, err = cluster.ParseMode(*mode); err != nil {
		fmt.Fprintln(os.Stderr, "stencilrun:", err)
		os.Exit(2)
	}
	pr := stencil.Params{N: *n, Iters: *iters, Procs: *procs, Threads: *threads, SkipCompute: !*verify}
	pr2 := stencil.Params2D{N: *n, Iters: *iters, Px: *px, Py: *py, Threads: *threads, SkipCompute: !*verify}
	var (
		res   stencil.Result
		shape = fmt.Sprintf("mode=%s procs=%d", *mode, *procs)
		// want sums the serial reference in the run's rank-blocked order.
		want = func(ref []float64) float64 { return stencil.ReferenceChecksum(ref, pr) }
	)
	switch {
	case *px > 0 || *py > 0:
		shape = fmt.Sprintf("mode=%s-2d grid=%dx%d", m, *px, *py)
		want = func(ref []float64) float64 { return stencil.ReferenceChecksum2D(ref, pr2) }
		if err = pr2.Validate(); err == nil {
			res, err = stencil.Run2D(cluster.New(plat, m.Nodes(pr2.Procs())).World(m, pr2.Procs()), pr2)
		}
	case *mode == "serial":
		res, err = stencil.RunSerial(plat, pr)
	default:
		res, err = stencil.Run(cluster.New(plat, m.Nodes(pr.Procs)), m, pr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stencilrun:", err)
		os.Exit(1)
	}
	fmt.Printf("%s threads=%d n=%d iters=%d\n", shape, *threads, *n, *iters)
	fmt.Printf("total=%v per-iteration=%v\n", res.Total, res.PerIter)
	if *verify {
		ref := want(stencil.Reference(stencil.Params{N: *n, Iters: *iters, Procs: 1, Threads: 1}))
		status := "OK"
		if res.Checksum != ref {
			status = "MISMATCH"
		}
		fmt.Printf("checksum=%.10g reference=%.10g [%s]\n", res.Checksum, ref, status)
		if status != "OK" {
			os.Exit(1)
		}
	}
}
