package bench

import (
	"testing"

	"repro/internal/cluster"
)

func TestAblationOffloadThresholdOptimumNear8K(t *testing.T) {
	f := NewEnv().AblationOffloadThreshold(plat())
	total, ok := f.ByLabel("sum over probe sizes")
	if !ok {
		t.Fatal("total series missing")
	}
	best, bestY := 0, 0.0
	for _, p := range total.Points {
		if best == 0 || p.Y < bestY {
			best, bestY = p.X, p.Y
		}
	}
	// The paper tuned to 8 KiB; our model should find its optimum in
	// the same neighborhood.
	if best < 4<<10 || best > 16<<10 {
		t.Fatalf("optimal threshold %d, expected in [4K,16K] around the paper's 8K", best)
	}
}

func TestAblationEagerThresholdTradeoffs(t *testing.T) {
	f := NewEnv().AblationEagerThreshold(plat())
	// A 512 B message should not care much about the threshold (always
	// eager); a 32 KiB message should be fastest when eager (one copy
	// beats the rendezvous handshake at these sizes on the Phi path).
	small, ok := f.ByLabel("512 msg")
	if !ok {
		t.Fatal("512 series missing")
	}
	lo, _ := small.At(1 << 10)
	hi, _ := small.At(64 << 10)
	if lo == 0 || hi == 0 {
		t.Fatal("missing points")
	}
	if diff := hi/lo - 1; diff > 0.05 && diff < -0.05 {
		t.Fatalf("512 B exchange moved %.1f%% across thresholds", diff*100)
	}
}

func TestAblationMRCacheWins(t *testing.T) {
	f := NewEnv().AblationMRCache(plat())
	s := f.Series[0]
	first := s.Points[0]
	last := s.Points[len(s.Points)-1]
	if first.X != 1 || last.X != 64 {
		t.Fatalf("unexpected sweep %v", s.Points)
	}
	if last.Y >= first.Y {
		t.Fatalf("cache (%f µs) not faster than per-message registration (%f µs)", last.Y, first.Y)
	}
	// Re-registering on every message costs a delegated round trip plus
	// pinning: expect a large gap.
	if first.Y-last.Y < 50 {
		t.Fatalf("cache saves only %.1f µs, expected >50 µs", first.Y-last.Y)
	}
}

func TestAblationRingDepthMonotone(t *testing.T) {
	f := NewEnv().AblationRingDepth(plat())
	s := f.Series[0]
	// Deeper rings are never slower under a burst.
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].Y > s.Points[i-1].Y*1.02 {
			t.Fatalf("ring depth %d slower than %d: %.2f vs %.2f µs",
				s.Points[i].X, s.Points[i-1].X, s.Points[i].Y, s.Points[i-1].Y)
		}
	}
	shallow := s.Points[0].Y
	deep := s.Points[len(s.Points)-1].Y
	if deep >= shallow {
		t.Fatalf("64 slots (%f) not faster than 2 slots (%f)", deep, shallow)
	}
}

func TestAblationCollectivesScaling(t *testing.T) {
	f := NewEnv().AblationCollectives(plat())
	if len(f.Series) != 4 {
		t.Fatalf("series %d, want 4", len(f.Series))
	}
	for _, s := range f.Series {
		// Latency grows with rank count (log factor in the trees).
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Y <= s.Points[i-1].Y {
				t.Fatalf("%s: latency not growing at ranks=%d", s.Label, s.Points[i].X)
			}
		}
	}
	// DCFA beats the proxied mode at every point.
	d8, _ := f.Series[0].At(8)
	p8, _ := f.Series[2].At(8)
	if d8 >= p8 {
		t.Fatalf("DCFA allreduce (%.1f µs) not faster than proxied (%.1f µs)", d8, p8)
	}
}

func TestAblationDatatypePackCrossover(t *testing.T) {
	f := NewEnv().AblationDatatypePack(plat())
	local, _ := f.ByLabel("Phi-local pack")
	off, _ := f.ByLabel("host-offloaded pack")
	// Small vectors: local wins (round trip dominates). Large: offload
	// wins (host pack rate beats the Phi core).
	l0, o0 := local.Points[0].Y, off.Points[0].Y
	ln, on := local.Points[len(local.Points)-1].Y, off.Points[len(off.Points)-1].Y
	if o0 <= l0 {
		t.Fatalf("offload should lose at %d bytes: %.1f vs %.1f µs", local.Points[0].X, o0, l0)
	}
	if on >= ln {
		t.Fatalf("offload should win at %d bytes: %.1f vs %.1f µs", local.Points[len(local.Points)-1].X, on, ln)
	}
}

func TestAblationCGModesAndScaling(t *testing.T) {
	f := NewEnv().AblationCG(plat())
	dcfa, _ := f.ByLabel(modeLabels[cluster.ModeDCFA])
	phi, _ := f.ByLabel(modeLabels[cluster.ModeIntelPhi])
	host, _ := f.ByLabel(modeLabels[cluster.ModeHost])
	// DCFA beats the proxied mode at every process count above 1.
	for _, p := range dcfa.Points {
		if p.X == 1 {
			continue
		}
		x, _ := phi.At(p.X)
		if p.Y >= x {
			t.Fatalf("DCFA CG (%.1f µs) not faster than proxied (%.1f µs) at procs=%d", p.Y, x, p.X)
		}
	}
	// The host reference with its fast cores stays fastest.
	h8, _ := host.At(8)
	d8, _ := dcfa.At(8)
	if h8 >= d8 {
		t.Fatalf("host CG (%.1f µs) should beat Phi-resident CG (%.1f µs) per iteration", h8, d8)
	}
	// Scaling: 8 procs beat 1 proc in every mode.
	for _, s := range f.Series {
		one, _ := s.At(1)
		eight, _ := s.At(8)
		if eight >= one {
			t.Fatalf("%s: no scaling (%.1f -> %.1f µs)", s.Label, one, eight)
		}
	}
}
