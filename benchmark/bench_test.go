package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// goldenSchema and goldenDefs pin every workload definition. Editing a
// parameter changes its hash; the test then demands that schemaVersion
// was bumped too, so numbers taken before and after are never mistaken
// for one series. After a deliberate change: bump schemaVersion in
// defs.go, then copy the new version and hashes here.
const goldenSchema = 2

var goldenDefs = map[string]string{
	"pp_eager":           "86cc6cf0780a82f5a38be0811a831d80a113109749f1d4ea46f43533e3cae8fa",
	"bw_rndv_offload":    "4f9b943135fe2a045c7143b6210e4062238629f6f6f5623140424ba23a44cbc2",
	"p2p_mixed":          "8ee9aa71f6854a1a41d10cc2b2d8ebca87cbd6423d403dbc542f979734c025c1",
	"pp_eager_instr":     "f987944ad1541db8799e992b8222cb9aaa5cf7ad48cd2415f0b605f0578b193e",
	"allreduce_ring_256": "9ff93e858e0a75ec07b6677723a8c70a3ba77474f48f00e2c0432d473c168973",
	"coll_mix_64x8":      "467afb401247b8786db1c958a7fd79356186c848bf0cf4eafd487ce3d22d9f05",
	"stencil_8x56":       "7b2e70d86e6898c4de7687ff2eac3b5a00852b9fcd10de07076f65cd606296f9",
}

func TestWorkloadDefinitionsPinned(t *testing.T) {
	if len(workloads) != len(goldenDefs) {
		t.Fatalf("%d workloads defined, %d pinned", len(workloads), len(goldenDefs))
	}
	changed := false
	for i := range workloads {
		d := &workloads[i]
		if got := d.sha256Hex(); got != goldenDefs[d.Name] {
			changed = true
			t.Logf("%s: definition hash %s, pinned %s", d.Name, got, goldenDefs[d.Name])
		}
	}
	switch {
	case changed && schemaVersion == goldenSchema:
		t.Fatalf("a workload definition changed but schemaVersion is still %d: bump it, then refresh goldenSchema and goldenDefs", schemaVersion)
	case changed || schemaVersion != goldenSchema:
		t.Fatalf("schemaVersion is %d: refresh goldenSchema (%d) and goldenDefs with the hashes logged above", schemaVersion, goldenSchema)
	}
}

// TestManifestMatchesTables keeps the committed BENCHMARK.json equal to
// what `manifest` generates from the Go tables, and inside the limits
// the benchmark contract sets on names, units and texts.
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	gen, err := json.Marshal(buildManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gen, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json differs from the Go tables; regenerate it with `bash benchmark/run.sh manifest`")
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	m := buildManifest()
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, e := range append(append([]manifestMetric{}, m.EndToEnd...), m.PerLayer...) {
		name(e.Name)
		if !unitRE.MatchString(e.Unit) {
			t.Errorf("%s: unit %q is malformed", e.Name, e.Unit)
		}
		if e.Bound != nil && (*e.Bound < 0 || *e.Bound > 0.25) {
			t.Errorf("%s: bound %v outside [0, 0.25]", e.Name, *e.Bound)
		}
		hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower" && e.Bound != nil)
	}
	if !hasSetup {
		t.Error("end_to_end must hold setup_s in seconds, lower is better")
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 || len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Errorf("manifest sizes out of range: %d workloads, %d end-to-end, %d per-layer", len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// TestSmokeTiny runs every workload in-process at tiny scale: same-seed
// runs reproduce their fingerprint, tracing does not move it, every op
// checks out, and the traced run plus the drivers supply every metric
// BENCHMARK.json names.
func TestSmokeTiny(t *testing.T) {
	logw = io.Discard
	drivers := runDrivers(time.Millisecond)
	fingerprints := map[string]string{}
	for i := range workloads {
		d := &workloads[i]
		o := repOpts{def: d, scale: scaleTiny, seed: 7}
		a, b := runRep(o), runRep(o)
		o.traced, o.profiled = true, true
		tr := runRep(o)
		for _, r := range []repResult{a, b, tr} {
			if r.OpsFailed != 0 || r.OpsAttempted < 1 || r.Err != "" {
				t.Fatalf("%s: %d of %d ops failed: %s", d.Name, r.OpsFailed, r.OpsAttempted, r.Err)
			}
		}
		if a.Fingerprint != b.Fingerprint {
			t.Errorf("%s: same seed, fingerprints %s and %s", d.Name, a.Fingerprint, b.Fingerprint)
		}
		if tr.Fingerprint != a.Fingerprint {
			t.Errorf("%s: traced fingerprint %s, untraced %s: tracing moved the schedule", d.Name, tr.Fingerprint, a.Fingerprint)
		}
		fingerprints[d.Name] = a.Fingerprint
		for _, m := range []struct {
			name string
			v    float64
		}{{"setup_s", a.SetupS}, {"wall_s", a.WallS}, {"alloc_mb", a.AllocMB}, {"peak_rss_mb", a.PeakRSSMB}, {"sim_time_us", a.SimTimeUS}} {
			if !finite(m.v) || m.v <= 0 {
				t.Errorf("%s: %s = %v, want a positive finite number", d.Name, m.name, m.v)
			}
		}
		for _, k := range exactLayer {
			if a.Layer[k] != b.Layer[k] || a.Layer[k] != tr.Layer[k] {
				t.Errorf("%s: %s differs between same-seed runs: %v, %v, traced %v", d.Name, k, a.Layer[k], b.Layer[k], tr.Layer[k])
			}
		}
		// traceOne's part: ratios against other children's wall time.
		tr.Layer["instr.trace_overhead_ratio"] = ratio(tr.WallS, a.WallS)
		tr.Layer["goruntime.wall_ratio_p2"] = ratio(b.WallS, a.WallS)
		for _, m := range perLayer {
			v, ok := tr.Layer[m.Name]
			if !ok {
				v, ok = drivers[m.Name]
			}
			if !ok || !finite(v) {
				t.Errorf("%s: per-layer metric %s missing or not finite (%v)", d.Name, m.Name, v)
			}
		}
		if tr.Layer["cpu.samples"] > 0 {
			sum := 0.0
			for _, n := range cpuBucketNames {
				sum += tr.Layer["cpu."+n+"_pct"]
			}
			if math.Abs(sum-100) > 1 {
				t.Errorf("%s: cpu.*_pct sums to %v", d.Name, sum)
			}
		}
		for _, s := range tr.Spans {
			if s.EndNS < s.StartNS {
				t.Errorf("%s: span %s never closed", d.Name, s.Name)
			}
		}
	}
	if fingerprints["pp_eager"] != fingerprints["pp_eager_instr"] {
		t.Errorf("pp_eager_instr fingerprint %s differs from pp_eager %s at equal iteration counts: instrumentation moved the schedule",
			fingerprints["pp_eager_instr"], fingerprints["pp_eager"])
	}
}

// TestSeedChangesInputs shows the seed reaches the program: payloads
// everywhere, and the schedule (so the fingerprint) on p2p_mixed.
func TestSeedChangesInputs(t *testing.T) {
	d, err := findWorkload("p2p_mixed")
	if err != nil {
		t.Fatal(err)
	}
	a := runRep(repOpts{def: d, scale: scaleTiny, seed: 7})
	b := runRep(repOpts{def: d, scale: scaleTiny, seed: 8})
	if a.Fingerprint == b.Fingerprint {
		t.Errorf("seeds 7 and 8 gave the same schedule fingerprint %s", a.Fingerprint)
	}
	if a.OpsFailed+b.OpsFailed != 0 {
		t.Errorf("failed ops: %d, %d", a.OpsFailed, b.OpsFailed)
	}
}

// TestCorruptedExpectationFails deliberately corrupts what every check
// expects: each workload must then count failed ops, and the child
// entry point must exit non-zero.
func TestCorruptedExpectationFails(t *testing.T) {
	logw = io.Discard
	for i := range workloads {
		d := &workloads[i]
		res := runRep(repOpts{def: d, scale: scaleTiny, seed: 7, corrupt: true})
		if res.OpsFailed == 0 {
			t.Errorf("%s: corrupted expectations, yet no op failed (%d attempted)", d.Name, res.OpsAttempted)
		}
		var out bytes.Buffer
		if code := cmdChild([]string{"-workload", d.Name, "-scale", scaleTiny, "-corrupt"}, &out); code == 0 {
			t.Errorf("%s: child exited 0 with corrupted expectations", d.Name)
		}
		var printed repResult
		if err := json.Unmarshal(out.Bytes(), &printed); err != nil || printed.OpsFailed == 0 {
			t.Errorf("%s: child result does not report the failure (%v)", d.Name, err)
		}
	}
}

// TestCPUBuckets profiles a real run and checks the in-tree profile
// reader: samples decode, land in the buckets the workload must hit,
// and the shares sum to 100.
func TestCPUBuckets(t *testing.T) {
	d, err := findWorkload("pp_eager")
	if err != nil {
		t.Fatal(err)
	}
	probe := *d
	probe.Tiny = iters{Warmup: 100, Timed: 40000}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	res := runRep(repOpts{def: &probe, scale: scaleTiny, seed: 7})
	pprof.StopCPUProfile()
	if res.OpsFailed != 0 {
		t.Fatal(res.Err)
	}
	pct, samples := cpuBuckets(prof.Bytes())
	if samples < 10 {
		t.Skipf("only %d CPU samples in %.2fs: host too fast or profiling unavailable", samples, res.WallS)
	}
	sum, byName := 0.0, map[string]float64{}
	for i, n := range cpuBucketNames {
		sum += pct[i]
		byName[n] = pct[i]
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("bucket shares sum to %v", sum)
	}
	if byName["sim"]+byName["core"]+byName["ib"]+byName["rt_handoff"] < 30 {
		t.Errorf("pp_eager spends %v%% in sim+core+ib+handoff; the buckets are misattributed: %v", byName["sim"]+byName["core"]+byName["ib"]+byName["rt_handoff"], byName)
	}
	for _, c := range [][2]string{
		{"repro/internal/sim.(*Engine).Run", "sim"}, {"repro/internal/core.(*Rank).progress", "core"},
		{"repro/internal/scif.(*Endpoint).Send", "dcfa_scif"}, {"repro/internal/stencil.jacobiRows", "app"},
		{"main.fillPattern", "app"}, {"runtime.memmove", "rt_memmove"}, {"runtime.mallocgc", "rt_gc_alloc"},
		{"runtime.chanrecv", "rt_handoff"}, {"runtime.futex", "rt_handoff"}, {"syscall.Syscall", "rt_other"},
	} {
		if got := bucketOf(c[0]); got != c[1] {
			t.Errorf("bucketOf(%q) = %s, want %s", c[0], got, c[1])
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v,
// n=4), the method the acceptance rule is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct{ in, want []float64 }{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, []float64{1, 2, 3}},
		{[]float64{1, 2}, []float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 9, 3, 7}, []float64{2, 5, 8}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := []float64{q1, q2, q3}; !reflect.DeepEqual(got, c.want) {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func testReport(wall ...float64) *report {
	wr := workloadReport{Name: "w", DefSHA: "x", Fingerprint: "f", OpsAttempted: 10, SimTimeUS: 100,
		Exact: map[string]float64{"sim.events": 5}, EndToEnd: map[string]stat{}}
	for _, m := range endToEnd {
		wr.EndToEnd[m.Name] = newStat(m.Unit, []float64{1, 1, 1, 1, 1}, pickMedian)
	}
	wr.EndToEnd["wall_s"] = newStat("s", wall, pickMin)
	return &report{SchemaVersion: schemaVersion, Scale: scaleFull, Workloads: []workloadReport{wr}}
}

func TestCompareVerdicts(t *testing.T) {
	bounds := loadBounds("../BENCHMARK.json")
	base := testReport(1.00, 1.01, 1.02, 1.01, 1.00)
	for _, c := range []struct {
		name  string
		cand  *report
		label string
		code  int
	}{
		{"same", testReport(1.01, 1.00, 1.02, 1.01, 1.00), labelOK, 0},
		{"slower", testReport(1.40, 1.41, 1.42, 1.41, 1.40), labelRegressed, 1},
		{"faster", testReport(0.60, 0.61, 0.62, 0.61, 0.60), labelImproved, 0},
		{"noisy", testReport(0.50, 1.90, 1.00, 1.60, 0.70), labelUnresolved, 0},
	} {
		var out bytes.Buffer
		code := compareReports(base, c.cand, bounds, &out)
		line := ""
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, "wall_s") {
				line = l
			}
		}
		if code != c.code || !strings.HasSuffix(line, c.label) {
			t.Errorf("%s: exit %d, wall_s row %q; want exit %d and verdict %s", c.name, code, line, c.code, c.label)
		}
	}

	var out bytes.Buffer
	slowModel := testReport(1.00, 1.01, 1.02, 1.01, 1.00)
	slowModel.Workloads[0].SimTimeUS = 101
	if code := compareReports(base, slowModel, bounds, &out); code != 1 {
		t.Errorf("a grown sim_time_us must fail compare; exit %d\n%s", code, out.String())
	}
	failing := testReport(1.00, 1.01, 1.02, 1.01, 1.00)
	failing.Workloads[0].OpsFailed = 1
	if code := compareReports(base, failing, bounds, &out); code != 1 {
		t.Errorf("a higher failed-op share must fail compare; exit %d", code)
	}
	otherDef := testReport(1.00, 1.01, 1.02, 1.01, 1.00)
	otherDef.Workloads[0].DefSHA = "y"
	if code := compareReports(base, otherDef, bounds, &out); code != 1 {
		t.Errorf("differing workload definitions must fail compare; exit %d", code)
	}
}
