// Command dcfabench regenerates the paper's evaluation tables and
// figures on the simulated platform.
//
// Usage:
//
//	dcfabench -all            # everything
//	dcfabench -fig 9          # one figure (5, 7, 8, 9, 10, 11, 12)
//	dcfabench -table 1        # one table (1, 2, 3)
//	dcfabench -fig 12 -stencil-iters 50
//	dcfabench -ablation cg    # one ablation (or all seven: -ablation all)
//
// With -metrics every world the run builds reports into one telemetry
// registry, and a summary (per-protocol message counts, MR-cache hit
// rate, RDMA bytes per direction pair, delegated-command round trips,
// latency histograms) is printed after the figures. With -trace the
// run's message-lifecycle spans are written as Chrome trace-event JSON,
// viewable at https://ui.perfetto.dev. Both are deterministic: the same
// invocation produces bit-identical output.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (5, 7, 8, 9, 10, 11, 12)")
	table := flag.Int("table", 0, "table to regenerate (1, 2, 3)")
	all := flag.Bool("all", false, "regenerate every table and figure")
	ablation := flag.String("ablation", "", "ablation study: "+strings.Join(bench.AblationNames(), ", ")+", all")
	stencilIters := flag.Int("stencil-iters", bench.NewEnv().StencilIters, "stencil iterations per configuration")
	calibration := flag.String("calibration", "", "JSON file overriding the default platform calibration")
	showMetrics := flag.Bool("metrics", false, "print the telemetry summary after the run")
	tracePath := flag.String("trace", "", "write the run's spans as Chrome trace-event JSON to this file")
	metricsJSON := flag.String("metricsjson", "", "write the telemetry snapshot as JSON to this file")
	faultSpec := flag.String("faults", "", "deterministic fault plan, e.g. seed=7,rate=0.01 (keys: seed, rate, ib, ib-delivered, cmd, dma, dma-abort, max-retries)")
	flag.Parse()

	env := bench.NewEnv()
	env.StencilIters = *stencilIters
	if *showMetrics || *tracePath != "" || *metricsJSON != "" {
		env.Metrics = metrics.New()
	}
	if *faultSpec != "" {
		plan, err := faults.Parse(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcfabench:", err)
			os.Exit(2)
		}
		env.Faults = plan
	}
	// finish emits the telemetry the run accumulated.
	finish := func() {
		reg := env.Metrics
		if reg == nil {
			return
		}
		if *showMetrics {
			fmt.Println()
			reg.WriteSummary(os.Stdout)
		}
		writeFile(*tracePath, func(w io.Writer) error { return reg.WriteChromeTrace(w, nil) })
		writeFile(*metricsJSON, reg.WriteJSON)
	}
	plat := perfmodel.Default()
	if *calibration != "" {
		data, err := os.ReadFile(*calibration)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcfabench:", err)
			os.Exit(1)
		}
		if plat, err = perfmodel.Load(data); err != nil {
			fmt.Fprintln(os.Stderr, "dcfabench:", err)
			os.Exit(1)
		}
	}
	out := os.Stdout

	if *all {
		env.RenderEvaluation(out, plat)
		finish()
		return
	}
	if *ablation != "" {
		figs := env.Ablations(plat, *ablation)
		if figs == nil {
			fmt.Fprintf(os.Stderr, "dcfabench: unknown ablation %q\n", *ablation)
			os.Exit(2)
		}
		for _, f := range figs {
			f.Render(out)
		}
	}
	switch *table {
	case 0:
	case 1:
		bench.Table1(out)
	case 2:
		bench.Table2(out, env.MsgSizes)
	case 3:
		bench.Table3(out)
	default:
		fmt.Fprintf(os.Stderr, "dcfabench: unknown table %d\n", *table)
		os.Exit(2)
	}
	switch *fig {
	case 0:
	case 5:
		env.Figure5(plat).Render(out)
	case 7:
		env.Figure7(plat).Render(out)
	case 8:
		env.Figure8(plat).Render(out)
	case 9:
		env.Figure9(plat).Render(out)
	case 10:
		env.Figure10(plat).Render(out)
	case 11:
		env.Figure11(plat).Render(out)
	case 12:
		env.Figure12(plat).Render(out)
	default:
		fmt.Fprintf(os.Stderr, "dcfabench: unknown figure %d (figures 1-4 and 6 are architecture diagrams, not measurements)\n", *fig)
		os.Exit(2)
	}
	if *fig == 0 && *table == 0 && *ablation == "" {
		flag.Usage()
		os.Exit(2)
	}
	finish()
}

// writeFile writes one telemetry export to path (empty = not asked for).
func writeFile(path string, write func(io.Writer) error) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err == nil {
		if err = write(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcfabench:", err)
		os.Exit(1)
	}
}
