package faults

import (
	"testing"

	"repro/internal/sim"
)

func TestParseBlanketRate(t *testing.T) {
	p, err := Parse("seed=7,rate=0.01")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 {
		t.Errorf("seed = %d, want 7", p.Seed)
	}
	if p.IBError != 0.01 || p.Cmd != 0.01 || p.DMADelay != 0.01 {
		t.Errorf("blanket rate not applied: ib=%v cmd=%v dma=%v", p.IBError, p.Cmd, p.DMADelay)
	}
	if p.DMAAbort != 0 {
		t.Errorf("rate must not enable aborts, got %v", p.DMAAbort)
	}
	if p.MaxSendRetries != 8 {
		t.Errorf("default lost: retries=%d", p.MaxSendRetries)
	}
}

func TestParseLayerOverrides(t *testing.T) {
	p, err := Parse("seed=0x2a,rate=0.1,ib=0.02,cmd=0.3,dma-abort=0.05,max-retries=2")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 {
		t.Errorf("hex seed = %d, want 42", p.Seed)
	}
	if p.IBError != 0.02 || p.Cmd != 0.3 || p.DMADelay != 0.1 || p.DMAAbort != 0.05 {
		t.Errorf("overrides wrong: %+v", p)
	}
	if p.MaxSendRetries != 2 {
		t.Errorf("max-retries = %d, want 2", p.MaxSendRetries)
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"",
		"   ",
		"rate",
		"rate=1.5",
		"rate=-0.1",
		"bogus=1",
		"seed=x",
		"cmd-deadline=fast",
		"cmd-deadline=5ms", // the recovery timings are constants
		"max-retries=-1",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var i *Injector
	if i.Enabled() {
		t.Error("nil injector enabled")
	}
	if f, d := i.IBWriteFault(); f || d {
		t.Error("nil injector faulted a write")
	}
	if i.IBReadFault() || i.CmdFault() {
		t.Error("nil injector faulted a read/cmd")
	}
	if d, a := i.DMAFault(); d != 0 || a {
		t.Error("nil injector faulted a DMA")
	}
	if i.MaxRetries() != 0 {
		t.Error("nil injector has a replay budget")
	}
	if New(sim.NewEngine(), nil) != nil {
		t.Error("New(nil plan) must yield a nil injector")
	}
}

func TestZeroRatePlanNeverFaults(t *testing.T) {
	i := New(sim.NewEngine(), NewPlan(7))
	if i.Enabled() {
		t.Error("all-zero plan reports enabled")
	}
	for k := 0; k < 1000; k++ {
		if f, _ := i.IBWriteFault(); f {
			t.Fatal("zero-rate plan faulted a write")
		}
		if i.CmdFault() {
			t.Fatal("zero-rate plan faulted a cmd")
		}
		if d, a := i.DMAFault(); d != 0 || a {
			t.Fatal("zero-rate plan faulted a DMA")
		}
	}
	if i.IBFaults+i.CmdFaults+i.DMADelayed+i.DMAAborted != 0 {
		t.Error("zero-rate plan tallied injections")
	}
}

// drawAll records one decision of each kind as a bitmask.
func drawAll(i *Injector) uint8 {
	var bits uint8
	if f, d := i.IBWriteFault(); f {
		bits |= 1
		if d {
			bits |= 2
		}
	}
	if i.IBReadFault() {
		bits |= 4
	}
	if i.CmdFault() {
		bits |= 8
	}
	if d, a := i.DMAFault(); d != 0 {
		bits |= 16
	} else if a {
		bits |= 32
	}
	return bits
}

func activePlan(seed uint64) *Plan {
	p := NewPlan(seed)
	p.IBError = 0.3
	p.Cmd = 0.3
	p.DMADelay = 0.2
	p.DMAAbort = 0.1
	return p
}

func TestSameSeedSameDecisionStream(t *testing.T) {
	a := New(sim.NewEngine(), activePlan(7))
	b := New(sim.NewEngine(), activePlan(7))
	for k := 0; k < 2000; k++ {
		if da, db := drawAll(a), drawAll(b); da != db {
			t.Fatalf("decision %d diverged: %#x vs %#x", k, da, db)
		}
	}
	if a.IBFaults != b.IBFaults || a.CmdFaults != b.CmdFaults ||
		a.DMADelayed != b.DMADelayed || a.DMAAborted != b.DMAAborted {
		t.Error("tallies diverged for the same seed")
	}
	if a.IBFaults == 0 || a.CmdFaults == 0 || a.DMADelayed == 0 || a.DMAAborted == 0 {
		t.Errorf("expected injections at these rates: %+v", a)
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := New(sim.NewEngine(), activePlan(7))
	b := New(sim.NewEngine(), activePlan(8))
	same := true
	for k := 0; k < 200; k++ {
		if drawAll(a) != drawAll(b) {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 7 and 8 produced identical decision streams")
	}
}

// TestStreamsAreIndependent verifies that drawing from one layer's
// stream does not shift another's: the IB decision sequence must be the
// same whether or not CMD decisions are interleaved.
func TestStreamsAreIndependent(t *testing.T) {
	a := New(sim.NewEngine(), activePlan(7))
	b := New(sim.NewEngine(), activePlan(7))
	for k := 0; k < 500; k++ {
		fa, _ := a.IBWriteFault()
		b.CmdFault() // extra draw on an unrelated stream
		fb, _ := b.IBWriteFault()
		if fa != fb {
			t.Fatalf("IB decision %d shifted by interleaved CMD draws", k)
		}
	}
}

// TestRatesApproximatelyHonored checks the injected fraction lands near
// the configured probability (deterministic, so exact bounds are safe).
func TestRatesApproximatelyHonored(t *testing.T) {
	p := NewPlan(7)
	p.IBError = 0.25
	i := New(sim.NewEngine(), p)
	const draws = 10000
	for k := 0; k < draws; k++ {
		i.IBWriteFault()
	}
	frac := float64(i.IBFaults) / draws
	if frac < 0.2 || frac > 0.3 {
		t.Errorf("injected fraction %v, want ≈0.25", frac)
	}
}
