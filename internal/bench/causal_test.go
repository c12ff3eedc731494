package bench_test

// Integration tests for the causal profiler on real workloads: the
// profiler must be fingerprint-neutral (recording on/off runs the same
// schedule), byte-deterministic, and its golden patterns must show up
// in the protocol showcase, which injects a late sender and forced
// rendezvous mispredictions on purpose.

import (
	"bytes"
	"testing"

	"repro/internal/bench"
	"repro/internal/causal"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// tortureFaultPlan is the fault mix the fingerprint-neutrality test
// runs under: recovery paths emit causal events too, so neutrality
// must hold with recovery exercised.
func tortureFaultPlan() *faults.Plan {
	p := faults.NewPlan(7)
	p.IBError = 0.02
	p.Cmd = 0.02
	p.DMADelay = 0.05
	p.DMAAbort = 0.05
	return p
}

func TestProfilingDoesNotPerturbSchedule(t *testing.T) {
	plat := perfmodel.Default()
	const seed, rounds, msgs = 7, 4, 12

	base, err := (&bench.Env{Faults: tortureFaultPlan()}).TortureFlood(plat, seed, rounds, msgs)
	if err != nil {
		t.Fatal(err)
	}

	run := func() (bench.PerfResult, []byte) {
		rec := causal.New()
		reg := metrics.New()
		res, err := (&bench.Env{Metrics: reg, Causal: rec, Faults: tortureFaultPlan()}).TortureFlood(plat, seed, rounds, msgs)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := causal.Analyze("torture", rec.Events(), res.SimTime).WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}
	r1, rep1 := run()
	r2, rep2 := run()

	if r1.Fingerprint != base.Fingerprint {
		t.Errorf("profiled fingerprint %#x != unprofiled %#x — profiling perturbed the schedule",
			r1.Fingerprint, base.Fingerprint)
	}
	if r1.SimTime != base.SimTime || r1.Events != base.Events {
		t.Errorf("profiled run shape (%d events, %dns) != unprofiled (%d events, %dns)",
			r1.Events, r1.SimTime, base.Events, base.SimTime)
	}
	if r2.Fingerprint != r1.Fingerprint {
		t.Error("two profiled runs diverged")
	}
	if !bytes.Equal(rep1, rep2) {
		t.Error("causal report not byte-identical across identical runs")
	}
}

// analyzeShowcase runs the protocol showcase with the profiler on and
// returns the report plus the registry it ran with.
func analyzeShowcase(t *testing.T) (*causal.Report, *metrics.Registry) {
	t.Helper()
	rec := causal.New()
	reg := metrics.New()
	end, err := (&bench.Env{Metrics: reg, Causal: rec}).ProtocolShowcase(perfmodel.Default())
	if err != nil {
		t.Fatal(err)
	}
	return causal.Analyze("showcase", rec.Events(), end), reg
}

func TestShowcaseGoldenPatterns(t *testing.T) {
	rep, reg := analyzeShowcase(t)

	if len(rep.Issues) != 0 {
		t.Fatalf("showcase graph has inconsistencies: %v", rep.Issues)
	}
	if open := reg.OpenSpans(); open != 0 {
		t.Errorf("%d spans left open", open)
	}

	// The showcase's phase 5 delays the sender by 400µs against a
	// pre-posted receive: late-sender must be detected at that scale.
	ls := rep.Pattern(causal.PatLateSender)
	if ls == nil || ls.Count < 1 {
		t.Fatal("injected late sender not detected")
	}
	if len(ls.Worst) == 0 || ls.Worst[0].Cost < sim.Duration(400*sim.Microsecond) {
		t.Errorf("late-sender worst cost %v, want >= the injected 400µs delay", ls.Worst)
	}

	// Phase 4 (simultaneous rendezvous) and phase 6 (forced eager-vs-RTR
	// race) both mispredict: the stall pattern must catch them.
	ms := rep.Pattern(causal.PatMispredictStall)
	if ms == nil || ms.Count < 2 {
		t.Fatalf("rendezvous mispredict stalls not detected: %+v", ms)
	}
	if ms.Cost <= 0 {
		t.Error("mispredict stalls carry no cost")
	}
}

func TestShowcaseBreakdownPartitionsSimTime(t *testing.T) {
	rep, _ := analyzeShowcase(t)
	var sum sim.Duration
	for _, c := range causal.Categories {
		d, ok := rep.Breakdown[c]
		if !ok {
			t.Errorf("breakdown missing category %q", c)
		}
		sum += d
	}
	if len(rep.Breakdown) != len(causal.Categories) {
		t.Errorf("breakdown has %d categories, want %d", len(rep.Breakdown), len(causal.Categories))
	}
	if sim.Time(sum) != rep.SimTime {
		t.Errorf("breakdown sums to %d, want sim time %d", sum, rep.SimTime)
	}
	// The handshake-heavy showcase must attribute real time to the
	// rendezvous category, and compute can't be the whole story.
	if rep.Breakdown[causal.CatRndvRTT] == 0 {
		t.Error("no critical-path time attributed to rendezvous-rtt")
	}
}

func TestShowcaseMessagesCoverProtocols(t *testing.T) {
	rep, _ := analyzeShowcase(t)
	protos := map[uint8]bool{}
	for _, m := range rep.Graph().Messages {
		protos[m.Proto] = true
	}
	for _, p := range []uint8{causal.ProtoEager, causal.ProtoSenderRzv, causal.ProtoRecvRzv, causal.ProtoSimulRzv} {
		if !protos[p] {
			t.Errorf("no message resolved as %s in the showcase graph", causal.ProtoName(p))
		}
	}
}

func TestShowcaseFlowsBindMessages(t *testing.T) {
	rep, reg := analyzeShowcase(t)
	flows := rep.Flows()
	if len(flows) == 0 {
		t.Fatal("no flow events exported")
	}
	msg := 0
	for _, f := range flows {
		if f.Cat == "message" {
			msg++
			if f.ToTS < f.FromTS {
				t.Errorf("flow %q finishes before it starts", f.Name)
			}
		}
	}
	if msg == 0 {
		t.Error("no message flows among the exported flows")
	}
	// The combined trace must survive the exporter round trip and be
	// byte-deterministic.
	var a, b bytes.Buffer
	if err := rep.WriteTrace(&a, reg); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteTrace(&b, reg); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("trace export empty or not byte-deterministic")
	}
}
