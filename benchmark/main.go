// Command benchmark is the repository's benchmark: seven pinned
// workloads over the DCFA-MPI simulator, four bounded end-to-end
// metrics plus the exact simulated time, and a per-layer ledger from a
// separate traced run and a set of layer drivers. See README.md.
//
// Usage (from the repository root, through run.sh which builds it):
//
//	bash benchmark/run.sh --workload pp_eager --seed 7 --seconds 30 --trace 0
//	bash benchmark/run.sh all      -o benchmark/out/report.json
//	bash benchmark/run.sh run      [-reps 5] [-workloads a,b]
//	bash benchmark/run.sh trace    [-workloads a,b]
//	bash benchmark/run.sh drivers
//	bash benchmark/run.sh compare A.json B.json
//	bash benchmark/run.sh manifest > BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// logw receives progress and diagnostics; results go to stdout.
var logw io.Writer = os.Stderr

const (
	outDir        = "benchmark/out"
	benchmarkJSON = "BENCHMARK.json"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) == 0 {
		args = []string{"all"}
	}
	switch cmd := args[0]; {
	case strings.HasPrefix(cmd, "-"):
		return cmdDriver(args)
	case cmd == "child":
		return cmdChild(args[1:], os.Stdout)
	case cmd == "manifest":
		if err := json.NewEncoder(os.Stdout).Encode(buildManifest()); err != nil {
			return 1
		}
		return 0
	case cmd == "run", cmd == "trace", cmd == "all":
		return cmdReport(cmd, args[1:])
	case cmd == "drivers":
		return cmdDrivers(args[1:])
	case cmd == "compare":
		return cmdCompare(args[1:], os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "benchmark: unknown command %q (want run, trace, drivers, all, compare, manifest)\n", cmd)
		return 2
	}
}

// cmdChild runs one rep, or the drivers, in this process and prints the
// result as one JSON object. It exits non-zero when any op failed.
func cmdChild(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	scale := fs.String("scale", scaleFull, "full or tiny")
	seed := fs.Uint64("seed", 7, "payload/schedule seed")
	repN := fs.Int("rep", 0, "rep index")
	traced := fs.Bool("traced", false, "attach the metrics registry and report its counts")
	profiled := fs.Bool("profiled", false, "record phase spans and a CPU profile of the timed region")
	startNS := fs.Int64("start", 0, "unix nanoseconds at which the runner launched this child")
	drivers := fs.Bool("drivers", false, "run the layer drivers instead of a rep")
	budget := fs.Duration("budget", 500*time.Millisecond, "time per driver loop")
	corrupt := fs.Bool("corrupt", false, "test hook: corrupt every expected payload, so the rep must fail")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	enc := json.NewEncoder(w)
	if *drivers {
		if err := enc.Encode(runDrivers(*budget)); err != nil {
			return 1
		}
		return 0
	}
	def, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	o := repOpts{def: def, scale: *scale, seed: *seed, rep: *repN, traced: *traced, profiled: *profiled, corrupt: *corrupt}
	if *startNS > 0 {
		o.start = time.Unix(0, *startNS)
	}
	res := runRep(o)
	if err := enc.Encode(res); err != nil {
		return 1
	}
	if res.OpsFailed > 0 {
		return 1
	}
	return 0
}

// selectDefs resolves a comma-separated workload list ("" = all).
func selectDefs(list string) ([]*workloadDef, error) {
	var defs []*workloadDef
	if list == "" {
		for i := range workloads {
			defs = append(defs, &workloads[i])
		}
		return defs, nil
	}
	for _, n := range strings.Split(list, ",") {
		d, err := findWorkload(strings.TrimSpace(n))
		if err != nil {
			return nil, err
		}
		defs = append(defs, d)
	}
	return defs, nil
}

// cmdReport implements run, trace and all: untraced reps for the
// end-to-end metrics, then (trace, all) one traced child per workload
// for the ledger, then (all) the layer drivers.
func cmdReport(cmd string, args []string) int {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	reps := fs.Int("reps", 5, "untraced reps per workload, each in a fresh process")
	seed := fs.Uint64("seed", 7, "payload/schedule seed")
	scale := fs.String("scale", scaleFull, "full or tiny")
	list := fs.String("workloads", "", "comma-separated subset (default all)")
	out := fs.String("o", "", "also write the JSON report to this file")
	budget := fs.Duration("budget", 500*time.Millisecond, "time per driver loop")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	defs, err := selectDefs(*list)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	rep := newReport(*scale, *seed, defs)
	if cmd == "trace" {
		// The overhead ratio and the fingerprint check need one untraced rep.
		*reps = 1
	}
	runSet(rep, defs, *reps)
	if cmd != "run" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		for _, d := range defs {
			wr := rep.workload(d.Name)
			traceOne(wr, d, *scale, *seed, wr.EndToEnd["wall_s"].Value, outDir)
		}
	}
	if cmd == "all" {
		if rep.Drivers, err = spawnDrivers(*budget); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	printReport(os.Stdout, rep)
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	for _, wr := range rep.Workloads {
		if wr.OpsFailed > 0 {
			return 1
		}
	}
	return 0
}

func cmdDrivers(args []string) int {
	fs := flag.NewFlagSet("drivers", flag.ContinueOnError)
	budget := fs.Duration("budget", 500*time.Millisecond, "time per driver loop")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	m, err := spawnDrivers(*budget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printLayer(os.Stdout, "drivers", m)
	return 0
}

// unitOf looks a metric's unit up in the vocabulary tables.
func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

// printLayer prints name/value/unit rows in sorted order.
func printLayer(w io.Writer, title string, m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%s:\n", title)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-32s %16.6g %s\n", k, m[k], unitOf(k))
	}
}

func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "schema %d  scale %s  seed %d  %s  nproc %d  GOMAXPROCS %d  %s  load %.2f\n",
		rep.SchemaVersion, rep.Scale, rep.Seed, rep.Env.GoVersion, rep.Env.NumCPU, rep.Env.ChildProcs, rep.Env.CPUModel, rep.Env.LoadAvg1)
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "\n%s  def %.12s  fingerprint %s  ops %d attempted, %d failed\n",
			wr.Name, wr.DefSHA, wr.Fingerprint, wr.OpsAttempted, wr.OpsFailed)
		for _, m := range endToEnd {
			st, ok := wr.EndToEnd[m.Name]
			if !ok {
				continue // a traced-only run has no untraced reps
			}
			fmt.Fprintf(w, "  %-14s %12.4f %-3s median %12.4f  min %12.4f  max %12.4f  n %d\n", m.Name, st.Value, st.Unit, st.Median, st.Min, st.Max, st.N)
		}
		if wr.EndToEnd != nil {
			fmt.Fprintf(w, "  %-14s %12.3f sim_us (exact)\n", "sim_time_us", wr.SimTimeUS)
		}
		if wr.PerLayer != nil {
			printLayer(w, "  per-layer (traced run, fingerprint "+wr.TracedFingerprint+")", wr.PerLayer)
			printLayer(w, "  span self time, ms", wr.SpanSelfMS)
		}
	}
	if rep.Drivers != nil {
		fmt.Fprintln(w)
		printLayer(w, "layer drivers and model probes", rep.Drivers)
	}
}

// cmdDriver implements the one-workload protocol the benchmark driver
// speaks: measure one workload for about -seconds and print, as the
// last line of stdout, one JSON object with the end-to-end metrics
// (-trace 0) or the per-layer metrics (-trace 1).
func cmdDriver(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 7, "payload/schedule seed")
	seconds := fs.Float64("seconds", runSeconds, "how long to measure")
	traceOn := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	rep := newReport(scaleFull, *seed, []*workloadDef{def})
	wr := &rep.Workloads[0]
	budget := time.Duration(*seconds * float64(time.Second))
	start := time.Now()

	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metricsOut := map[string]metricOut{}
	if *traceOn == 0 {
		// Fresh-process reps until the budget is spent: another rep starts
		// only while at least half of it fits, so a run ends within half a
		// rep of the budget however slow the host. Three at least, so every
		// reported value summarises several measurements.
		for i := 0; ; i++ {
			res := spawnRep(repOpts{def: def, scale: scaleFull, seed: *seed, rep: i})
			wr.fold(res)
			if left := budget - time.Since(start); i >= 2 && left.Seconds() < res.ChildWallS/2 {
				break
			}
		}
		wr.summarise()
		for _, m := range endToEnd {
			metricsOut[m.Name] = metricOut{wr.EndToEnd[m.Name].Value, m.Unit}
		}
	} else {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		traceOne(wr, def, scaleFull, *seed, 0, outDir)
		// The drivers get what is left of the budget, within 0.1-0.5 s a loop.
		per := (budget - time.Since(start)) / 20
		per = max(100*time.Millisecond, min(per, 500*time.Millisecond))
		if rep.Drivers, err = spawnDrivers(per); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		for _, m := range perLayer {
			v, ok := wr.PerLayer[m.Name]
			if !ok {
				v = rep.Drivers[m.Name]
			}
			metricsOut[m.Name] = metricOut{v, m.Unit}
		}
	}
	printReport(os.Stdout, rep)
	final := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{wr.OpsFailed == 0, wr.OpsAttempted, wr.OpsFailed, metricsOut}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	if wr.OpsFailed > 0 {
		return 1
	}
	return 0
}
