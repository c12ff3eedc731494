package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

func plat() *perfmodel.Platform { return perfmodel.Default() }

// TestRawOneWayDirections also holds the bare-verbs measurement to the
// registration ledger: both adapters start with no region registered
// and must end with none.
func TestRawOneWayDirections(t *testing.T) {
	const n = 1 << 20
	env := NewEnv()
	oneWay := func(src, dst machine.DomainKind) sim.Duration {
		d, hcas := env.rawOneWay(plat(), src, dst, n, 3)
		for i, h := range hcas {
			if live := h.LiveMRs(); live != 0 {
				t.Errorf("%v->%v: adapter %d ends holding %d registrations, started with 0", src, dst, i, live)
			}
		}
		return d
	}
	hh := oneWay(machine.HostMem, machine.HostMem)
	hp := oneWay(machine.HostMem, machine.MicMem)
	ph := oneWay(machine.MicMem, machine.HostMem)
	pp := oneWay(machine.MicMem, machine.MicMem)
	if r := float64(hp) / float64(hh); r > 1.05 {
		t.Fatalf("host->phi %.2f× host->host, want ≈1", r)
	}
	if r := float64(ph) / float64(hh); r < 4 {
		t.Fatalf("phi->host only %.2f× slower, want >4×", r)
	}
	if r := float64(pp) / float64(ph); r < 0.9 || r > 1.1 {
		t.Fatalf("phi->phi vs phi->host ratio %.2f, want ≈1", r)
	}
}

func TestFigure5Shape(t *testing.T) {
	f := NewEnv().Figure5(plat())
	if len(f.Series) != 4 {
		t.Fatalf("series %d, want 4", len(f.Series))
	}
	hh, _ := f.Series[0].At(4 << 20)
	if hh < 5.0 || hh > 6.0 {
		t.Fatalf("host->host large bandwidth %.2f GB/s, want ≈5.8", hh)
	}
	pp, _ := f.Series[3].At(4 << 20)
	if pp > 1.4 {
		t.Fatalf("phi->phi large bandwidth %.2f GB/s, want ≈1.2", pp)
	}
}

func TestFigure7And8OffloadCurves(t *testing.T) {
	f7 := NewEnv().Figure7(plat())
	base, _ := f7.ByLabel(modeLabels[cluster.ModeDCFABase])
	off, _ := f7.ByLabel(modeLabels[cluster.ModeDCFA])
	host, _ := f7.ByLabel(modeLabels[cluster.ModeHost])
	// Below the 8 KiB threshold the two DCFA variants are identical.
	b4, _ := base.At(4096)
	o4, _ := off.At(4096)
	if b4 != o4 {
		t.Fatalf("offload changed sub-threshold RTT: %v vs %v", b4, o4)
	}
	// Above it, offload wins and approaches the host.
	b1m, _ := base.At(1 << 20)
	o1m, _ := off.At(1 << 20)
	h1m, _ := host.At(1 << 20)
	if o1m >= b1m {
		t.Fatalf("offload RTT %v not below base %v at 1 MiB", o1m, b1m)
	}
	ratio := o1m / h1m
	if ratio < 1.6 || ratio > 2.5 {
		t.Fatalf("offloaded/host RTT ratio %.2f at 1 MiB, paper says ≈2", ratio)
	}

	f8 := NewEnv().Figure8(plat())
	off8, _ := f8.ByLabel(modeLabels[cluster.ModeDCFA])
	peak := 0.0
	for _, p := range off8.Points {
		if p.Y > peak {
			peak = p.Y
		}
	}
	if peak < 2.5 || peak > 3.1 {
		t.Fatalf("offloaded peak bandwidth %.2f GB/s, paper: 2.8", peak)
	}
	base8, _ := f8.ByLabel(modeLabels[cluster.ModeDCFABase])
	basePeak := 0.0
	for _, p := range base8.Points {
		if p.Y > basePeak {
			basePeak = p.Y
		}
	}
	if basePeak > 1.4 {
		t.Fatalf("non-offloaded peak %.2f GB/s, should stay near the DMA-read cap", basePeak)
	}
}

func TestFigure9Targets(t *testing.T) {
	f := NewEnv().Figure9(plat())
	d, _ := f.ByLabel(modeLabels[cluster.ModeDCFA])
	x, _ := f.ByLabel(modeLabels[cluster.ModeIntelPhi])
	dl, _ := d.At(4 << 20)
	xl, _ := x.At(4 << 20)
	if r := dl / xl; r < 2.5 || r > 3.6 {
		t.Fatalf("large-message ratio %.2f, paper: 3×", r)
	}
	// DCFA-MPI must win at every size.
	for _, p := range d.Points {
		xv, _ := x.At(p.X)
		if p.Y <= xv {
			t.Fatalf("Intel-on-Phi wins at %d bytes (%.3f vs %.3f GB/s)", p.X, xv, p.Y)
		}
	}
}

func TestFigure10Targets(t *testing.T) {
	f := NewEnv().Figure10(plat())
	r, _ := f.ByLabel("speedup")
	small, _ := r.At(64)
	if small < 8 || small > 16 {
		t.Fatalf("small-message speedup %.1f×, paper: 12×", small)
	}
	large, _ := r.At(1 << 20)
	if large < 1.6 || large > 2.6 {
		t.Fatalf("large-message speedup %.1f×, paper: 2×", large)
	}
	// Monotone decreasing overall trend: offload overhead amortizes.
	first := r.Points[0].Y
	last := r.Points[len(r.Points)-1].Y
	if first <= last {
		t.Fatalf("speedup should shrink with size: %.1f -> %.1f", first, last)
	}
}

func TestFigure11Shape(t *testing.T) {
	env := NewEnv()
	env.StencilIters = 5
	f := env.Figure11(plat())
	if len(f.Series) != 6 {
		t.Fatalf("series %d, want 6 (3 modes × 2 thread counts)", len(f.Series))
	}
	for _, s := range f.Series {
		// Time decreases with procs for every mode/thread combo.
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Y >= s.Points[i-1].Y {
				t.Fatalf("%s: time not decreasing at procs=%d", s.Label, s.Points[i].X)
			}
		}
	}
	// Host+offload is the slowest everywhere.
	for _, threads := range []string{"T=1", "T=56"} {
		var dcfa, host Series
		for _, s := range f.Series {
			if strings.Contains(s.Label, threads) {
				if strings.HasPrefix(s.Label, "DCFA") {
					dcfa = s
				}
				if strings.Contains(s.Label, "offload") {
					host = s
				}
			}
		}
		for _, p := range dcfa.Points {
			h, _ := host.At(p.X)
			if h <= p.Y {
				t.Fatalf("host+offload (%s) not slower at procs=%d", threads, p.X)
			}
		}
	}
}

func TestFigure12Targets(t *testing.T) {
	env := NewEnv()
	env.StencilIters = 5
	f := env.Figure12(plat())
	dcfa, _ := f.ByLabel("DCFA-MPI")
	phi, _ := f.ByLabel("IntelMPI-on-Phi")
	host, _ := f.ByLabel("IntelMPI-Xeon+offload")
	d, _ := dcfa.At(56)
	x, _ := phi.At(56)
	h, _ := host.At(56)
	if d < 117*0.85 || d > 117*1.15 {
		t.Fatalf("DCFA speedup %.0f×, paper 117×", d)
	}
	if x < 113*0.85 || x > 113*1.15 {
		t.Fatalf("Intel-on-Phi speedup %.0f×, paper 113×", x)
	}
	if h < 74*0.85 || h > 74*1.15 {
		t.Fatalf("host+offload speedup %.0f×, paper 74×", h)
	}
	if !(d > x && x > h) {
		t.Fatalf("ordering violated: %.0f/%.0f/%.0f", d, x, h)
	}
	// Speedup grows with threads in every mode.
	for _, s := range f.Series {
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Y <= s.Points[i-1].Y {
				t.Fatalf("%s: speedup not increasing at T=%d", s.Label, s.Points[i].X)
			}
		}
	}
}

func TestRenderAndTables(t *testing.T) {
	f := &Figure{
		ID: "Figure X", Title: "test", XLabel: "bytes", YLabel: "GB/s",
		Series: []Series{{Label: "a", Points: []Point{{4, 1.5}, {1024, 2.5}, {1 << 20, 3}}}},
		Notes:  []string{"hello"},
	}
	var buf bytes.Buffer
	f.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Figure X", "bytes", "1K", "1M", "hello", "2.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	Table1(&buf, plat())
	if !strings.Contains(buf.String(), "ConnectX-3") {
		t.Fatal("Table I missing HCA row")
	}
	buf.Reset()
	Table2(&buf)
	if !strings.Contains(buf.String(), "Copy In 1024") {
		t.Fatal("Table II missing offload row")
	}
	buf.Reset()
	Table3(&buf)
	if !strings.Contains(buf.String(), "1282 x 1282") {
		t.Fatal("Table III missing problem size")
	}
}

// TestModeStrings: every mode has a figure label.
func TestModeStrings(t *testing.T) {
	for m := cluster.ModeDCFA; m <= cluster.ModeSymmetric; m++ {
		if int(m) >= len(modeLabels) || modeLabels[m] == "" {
			t.Fatalf("mode %s has no figure label", m)
		}
	}
}

func TestSeriesAndFigureHelpers(t *testing.T) {
	s := Series{Label: "x", Points: []Point{{1, 2}}}
	if _, ok := s.At(5); ok {
		t.Fatal("At found missing point")
	}
	f := &Figure{Series: []Series{s}}
	if _, ok := f.ByLabel("nope"); ok {
		t.Fatal("ByLabel found missing series")
	}
	if formatX(2048) != "2K" || formatX(3<<20) != "3M" || formatX(100) != "100" {
		t.Fatal("formatX wrong")
	}
	if gbps(1000, 0) != 0 {
		t.Fatal("gbps with zero duration should be 0")
	}
	if usec(sim.Microsecond*3) != 3 {
		t.Fatal("usec conversion wrong")
	}
}
