package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// The runner never measures anything in its own process. Every rep is a
// fresh child (in-process repetition drifts 3x as the heap target grows
// and GC stops running), one child at a time, and the runner starts no
// goroutine of its own while a child runs.

// stat summarises one metric over the reps of one workload. Value is
// the number the metric reports, chosen by the metric's pick.
type stat struct {
	Unit   string    `json:"unit"`
	Value  float64   `json:"value"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// pick says which order statistic of the reps a metric reports.
type pick int

const (
	// pickMedian suits a quantity whose noise is symmetric (alloc_mb,
	// which repeats to 0.02 %).
	pickMedian pick = iota
	// pickMin is for host times. Every rep of a seed executes the same
	// events in the same order (the fingerprint check enforces it), so
	// what differs between reps is the host: other tenants of a shared
	// machine only ever add time, in bursts that hit some reps and not
	// others. The reps of a run are a floor plus one-sided excursions,
	// and the floor is the program's own cost. A median sits on the floor
	// or above it according to how many reps the bursts caught; the
	// minimum stays put while one rep in the run escapes them. README.md
	// has the measurements (spread of 12-rep runs under a synthetic noisy
	// neighbour: median 3-18 %, first quartile 4-16 %, minimum 1-4 %).
	pickMin
	// pickMax is for peak_rss_mb: a peak is what a user must provision
	// for, and on pp_eager_instr it is bimodal (805 or ~1150 MB, by
	// whether a sixth GC cycle fires before the end), so a median would
	// flip between the modes while the maximum stays on the upper one.
	pickMax
)

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the
// exclusive method), which is what the acceptance rule is stated in;
// its middle cut q2 is the median.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func newStat(unit string, v []float64, p pick) stat {
	st := stat{Unit: unit, N: len(v), Values: v}
	if len(v) == 0 {
		return st
	}
	st.Q1, st.Median, st.Q3 = quartiles(v)
	st.Min, st.Max = v[0], v[0]
	for _, x := range v {
		st.Min, st.Max = min(st.Min, x), max(st.Max, x)
	}
	switch p {
	case pickMedian:
		st.Value = st.Median
	case pickMin:
		st.Value = st.Min
	case pickMax:
		st.Value = st.Max
	}
	return st
}

// workloadReport is one workload's section of a report.
type workloadReport struct {
	Name        string `json:"name"`
	DefSHA      string `json:"workload_def_sha256"`
	Fingerprint string `json:"fingerprint"`

	OpsAttempted int64 `json:"ops_attempted"`
	OpsFailed    int64 `json:"ops_failed"`

	// EndToEnd is taken from untraced reps only.
	EndToEnd map[string]stat `json:"end_to_end"`
	// SimTimeUS and Exact repeat to the last digit on every rep.
	SimTimeUS float64            `json:"sim_time_us"`
	Exact     map[string]float64 `json:"exact"`
	// ChildWallS is each child's wall time including process start.
	ChildWallS stat `json:"child_wall_s"`

	// PerLayer is the traced run's ledger (absent until `trace` ran).
	PerLayer          map[string]float64 `json:"per_layer,omitempty"`
	TracedFingerprint string             `json:"traced_fingerprint,omitempty"`
	SpanSelfMS        map[string]float64 `json:"span_self_ms,omitempty"`

	reps []repResult
}

// report is the document `run`, `trace` and `all` write.
type report struct {
	SchemaVersion int              `json:"schema_version"`
	Env           envInfo          `json:"env"`
	Scale         string           `json:"scale"`
	Seed          uint64           `json:"seed"`
	Workloads     []workloadReport `json:"workloads"`
	// Drivers are the layer-driver and model-probe results, global to
	// the report.
	Drivers map[string]float64 `json:"drivers,omitempty"`
}

func (r *report) workload(name string) *workloadReport {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

// spawn runs this executable as a child under GOMAXPROCS=procs with
// args and returns its stdout. The child inherits stderr so its
// diagnostics stay visible.
func spawn(procs int, args ...string) ([]byte, time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = childEnv(procs)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	start := time.Now()
	err = cmd.Run()
	return out.Bytes(), time.Since(start), err
}

// spawnRep runs one rep in a fresh child. A child that reports failed
// ops exits non-zero but still prints its result, so the result is
// decoded first and the exit status only matters when there is none.
func spawnRep(o repOpts) repResult {
	start := time.Now()
	args := []string{"child",
		"-workload", o.def.Name, "-scale", o.scale,
		"-seed", strconv.FormatUint(o.seed, 10), "-rep", strconv.Itoa(o.rep),
		"-start", strconv.FormatInt(start.UnixNano(), 10),
	}
	if o.traced {
		args = append(args, "-traced")
	}
	if o.profiled {
		args = append(args, "-profiled")
	}
	procs := childProcs
	if o.procs > 0 {
		procs = o.procs
	}
	out, wall, runErr := spawn(procs, args...)
	var res repResult
	if err := json.Unmarshal(bytes.TrimSpace(out), &res); err != nil {
		msg := fmt.Sprintf("child printed no result (%v)", err)
		if runErr != nil {
			msg = fmt.Sprintf("child failed: %v", runErr)
		}
		return repResult{Workload: o.def.Name, Scale: o.scale, Seed: o.seed, Rep: o.rep, Traced: o.traced,
			Err: msg, OpsAttempted: 1, OpsFailed: 1}
	}
	res.ChildWallS = wall.Seconds()
	return res
}

// failWhole marks every op of a rep failed: used when its fingerprint
// differs from rep 0's, which means the run was not the same run.
func failWhole(res *repResult, why string) {
	res.OpsFailed = res.OpsAttempted
	if res.Err == "" {
		res.Err = why
	}
}

// fold adds one untraced rep to the workload's report.
func (wr *workloadReport) fold(res repResult) {
	if wr.Fingerprint == "" {
		wr.Fingerprint, wr.DefSHA = res.Fingerprint, res.DefSHA
	} else if res.Fingerprint != wr.Fingerprint && res.Err == "" {
		failWhole(&res, fmt.Sprintf("fingerprint %s differs from rep 0's %s: nondeterminism", res.Fingerprint, wr.Fingerprint))
	}
	if res.Err != "" {
		fmt.Fprintf(logw, "benchmark: %s rep %d: %s\n", res.Workload, res.Rep, res.Err)
	}
	wr.OpsAttempted += res.OpsAttempted
	wr.OpsFailed += res.OpsFailed
	wr.reps = append(wr.reps, res)
}

// summarise computes the statistics over the folded reps.
func (wr *workloadReport) summarise() {
	var good []repResult
	for _, r := range wr.reps {
		if r.OpsFailed == 0 {
			good = append(good, r)
		}
	}
	col := func(f func(repResult) float64) []float64 {
		v := make([]float64, len(good))
		for i, r := range good {
			v[i] = f(r)
		}
		return v
	}
	wr.EndToEnd = map[string]stat{
		"setup_s":     newStat("s", col(func(r repResult) float64 { return r.SetupS }), pickMin),
		"wall_s":      newStat("s", col(func(r repResult) float64 { return r.WallS }), pickMin),
		"alloc_mb":    newStat("MB", col(func(r repResult) float64 { return r.AllocMB }), pickMedian),
		"peak_rss_mb": newStat("MB", col(func(r repResult) float64 { return r.PeakRSSMB }), pickMax),
	}
	wr.ChildWallS = newStat("s", col(func(r repResult) float64 { return r.ChildWallS }), pickMedian)
	wr.Exact = map[string]float64{}
	if len(good) == 0 {
		return
	}
	wr.SimTimeUS = good[0].SimTimeUS
	for _, k := range exactLayer {
		wr.Exact[k] = good[0].Layer[k]
		for _, r := range good[1:] {
			if r.Layer[k] != good[0].Layer[k] {
				wr.OpsFailed = wr.OpsAttempted
				fmt.Fprintf(logw, "benchmark: %s: %s differs between reps (%v vs %v)\n", wr.Name, k, r.Layer[k], good[0].Layer[k])
			}
		}
	}
}

// runSet runs reps untraced reps of every workload, interleaved
// round-robin so slow drift of the host hits all workloads alike.
func runSet(rep *report, defs []*workloadDef, reps int) {
	for i := 0; i < reps; i++ {
		for _, d := range defs {
			wr := rep.workload(d.Name)
			res := spawnRep(repOpts{def: d, scale: rep.Scale, seed: rep.Seed, rep: i})
			wr.fold(res)
			fmt.Fprintf(logw, "  %-20s rep %d  setup %.3fs  wall %.3fs  alloc %.1fMB  rss %.1fMB  child %.2fs\n",
				d.Name, i, res.SetupS, res.WallS, res.AllocMB, res.PeakRSSMB, res.ChildWallS)
		}
	}
	for i := range rep.Workloads {
		rep.Workloads[i].summarise()
	}
}

// traceOne fills one workload's per-layer ledger from three more fresh
// children: one profiled (spans + CPU profile), one traced (registry
// attached) and one untraced at GOMAXPROCS=2. Each must reproduce the
// untraced fingerprint: instrumentation and the host scheduler may not
// move the schedule. base is the untraced wall_s the ratios are set
// against; 0 means the profiled child's (the driver's protocol has no
// untraced reps to take it from; a 100 Hz profile costs about 1%).
func traceOne(wr *workloadReport, d *workloadDef, scale string, seed uint64, base float64, outDir string) {
	probe := func(what string, o repOpts) repResult {
		o.def, o.scale, o.seed = d, scale, seed
		res := spawnRep(o)
		if wr.Fingerprint == "" {
			wr.Fingerprint = res.Fingerprint
		}
		if res.Err == "" && res.Fingerprint != wr.Fingerprint {
			failWhole(&res, fmt.Sprintf("%s fingerprint %s differs from %s: it moved the schedule", what, res.Fingerprint, wr.Fingerprint))
		}
		if res.Err != "" {
			fmt.Fprintf(logw, "benchmark: %s %s: %s\n", d.Name, what, res.Err)
		}
		wr.OpsAttempted += res.OpsAttempted
		wr.OpsFailed += res.OpsFailed
		return res
	}
	prof := probe("profiled", repOpts{profiled: true})
	traced := probe("traced", repOpts{traced: true})
	p2 := probe("GOMAXPROCS=2", repOpts{procs: 2})
	if base == 0 {
		base = prof.WallS
	}
	wr.TracedFingerprint = traced.Fingerprint
	wr.PerLayer = map[string]float64{}
	for _, layer := range []map[string]float64{prof.Layer, traced.Layer} {
		for k, v := range layer {
			if _, seen := wr.PerLayer[k]; !seen {
				wr.PerLayer[k] = v
			}
		}
	}
	wr.PerLayer["instr.trace_overhead_ratio"] = ratio(traced.WallS, base)
	wr.PerLayer["goruntime.wall_ratio_p2"] = ratio(p2.WallS, base)
	wr.SpanSelfMS = map[string]float64{}
	for _, name := range []string{"build", "bootstrap", "warmup", "timed", "verify", "finalize"} {
		wr.SpanSelfMS[name] = selfMS(prof.Spans, name)
	}
	if outDir != "" {
		if err := writeJSON(outDir+"/trace_"+d.Name+".json", prof.Spans); err != nil {
			fmt.Fprintln(logw, "benchmark:", err)
		}
	}
}

// spawnDrivers runs the layer drivers and model probes in a child.
func spawnDrivers(budget time.Duration) (map[string]float64, error) {
	out, _, err := spawn(childProcs, "child", "-drivers", "-budget", budget.String())
	if err != nil {
		return nil, fmt.Errorf("drivers child: %w", err)
	}
	var m map[string]float64
	if err := json.Unmarshal(bytes.TrimSpace(out), &m); err != nil {
		return nil, fmt.Errorf("drivers child: %w", err)
	}
	return m, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func newReport(scale string, seed uint64, defs []*workloadDef) *report {
	rep := &report{SchemaVersion: schemaVersion, Env: readEnv(), Scale: scale, Seed: seed}
	if rep.Env.LoadWarning != "" {
		fmt.Fprintln(logw, "benchmark: warning:", rep.Env.LoadWarning)
	}
	for _, d := range defs {
		rep.Workloads = append(rep.Workloads, workloadReport{Name: d.Name, DefSHA: d.sha256Hex()})
	}
	return rep
}
