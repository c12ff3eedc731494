package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/metrics"
)

// TestExperimentsGolden is the exactness gate for everything
// EXPERIMENTS.md quotes: Tables I–III, every figure and every ablation,
// byte for byte against testdata/experiments.golden — the output of
// `dcfabench -all` followed by `dcfabench -ablation all`, generated at
// c59f1f7, before world construction moved into internal/cluster. A PR
// that means to move a number regenerates the file and says which
// lines moved and why.
func TestExperimentsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/experiments.golden")
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	var got bytes.Buffer
	env.RenderEvaluation(&got, plat())
	for _, f := range env.Ablations(plat(), "all") {
		f.Render(&got)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from testdata/experiments.golden:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, testdata/experiments.golden %d", len(gl), len(wl))
}

// TestEnvSinksReachStencilAndAblations: the registry and the fault plan
// an Env carries reach the clusters Figure 11's stencil runs and the
// ablations build, not just the 2-rank communication sweeps.
func TestEnvSinksReachStencilAndAblations(t *testing.T) {
	plan := faults.NewPlan(7)
	plan.IBError, plan.Cmd = 0.02, 0.1
	retries := func(reg *metrics.Registry) (n int64) {
		for _, c := range reg.Snapshot().Counters {
			if c.Name == "faults.retries" || c.Name == "cmd.retries" {
				n += c.Value
			}
		}
		return n
	}
	for _, tc := range []struct {
		name string
		run  func(*Env)
	}{
		{"Figure11", func(e *Env) { e.Figure11(plat()) }},
		{"AblationRingDepth", func(e *Env) { e.AblationRingDepth(plat()) }},
	} {
		reg := metrics.New()
		tc.run(&Env{Metrics: reg, Faults: plan, StencilIters: 2})
		if len(reg.Spans()) == 0 {
			t.Errorf("%s: Env.Metrics recorded no span", tc.name)
		}
		if open := reg.OpenSpans(); open != 0 {
			t.Errorf("%s: %d spans left open", tc.name, open)
		}
		if retries(reg) == 0 {
			t.Errorf("%s: Env.Faults caused no recovery work", tc.name)
		}
	}
}

func TestAblationNamesSelectOneEach(t *testing.T) {
	names := AblationNames()
	if len(names) != 7 || names[6] != "cg" {
		t.Fatalf("ablation names %v, want seven ending in cg", names)
	}
	if figs := NewEnv().Ablations(plat(), "mrcache"); len(figs) != 1 || figs[0].ID != "Ablation A3" {
		t.Fatalf("-ablation mrcache selected %d figures", len(figs))
	}
	if NewEnv().Ablations(plat(), "nope") != nil {
		t.Fatal("unknown ablation name accepted")
	}
}
