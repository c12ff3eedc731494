package topo

import (
	"testing"

	"repro/internal/sim"
)

// tree4 builds a radix-4 tree over 16 ports (4 leaves) with round
// numbers: 100ns switch hops, 1 GB/s uplinks, 200ns uplink latency.
func tree4(t *testing.T) *FatTree {
	t.Helper()
	return NewFatTree(sim.NewEngine(), "t", 16, FatTreeConfig{
		Radix: 4, UplinkBps: 1e9,
	})
}

func TestFatTreeSameLeafIsOneHop(t *testing.T) {
	ft := tree4(t)
	// Ports 0 and 3 share leaf 0: one switch traversal, no uplink use.
	got := ft.Deliver(1000, 0, 3, 1<<20, 5.8e9)
	if want := sim.Time(1000) + switchLatency; got != want {
		t.Errorf("same-leaf delivery at %v, want %v", got, want)
	}
	if ft.InteriorBytes() != 0 {
		t.Errorf("same-leaf transfer used interior links: %d bytes", ft.InteriorBytes())
	}
}

func TestFatTreeCrossLeafReservesUplinks(t *testing.T) {
	ft := tree4(t)
	const n = 1000 // 1000 B at 1 GB/s = 1µs serialization per link
	got := ft.Deliver(0, 0, 5, n, 5.8e9)
	// Store-and-forward: leaf hop + (uplink latency + serialization),
	// spine hop + (downlink latency + serialization), egress hop.
	want := sim.Time(3*switchLatency) +
		sim.Time(2*(uplinkLatency+sim.Duration(1e3*float64(sim.Microsecond)/1e3)))
	if got != want {
		t.Errorf("cross-leaf delivery at %v, want %v", got, want)
	}
	if ft.InteriorBytes() != 2*n {
		t.Errorf("interior carried %d bytes, want %d (uplink + downlink)", ft.InteriorBytes(), 2*n)
	}
}

// TestFatTreeIncastSerializes: two flows landing on one leaf at the
// same instant must queue on that leaf's downlink — the second
// arrival is pushed out by the first flow's serialization time.
func TestFatTreeIncastSerializes(t *testing.T) {
	ft := tree4(t)
	const n = 1000
	first := ft.Deliver(0, 0, 4, n, 5.8e9)  // leaf 0 → leaf 1
	second := ft.Deliver(0, 8, 5, n, 5.8e9) // leaf 2 → leaf 1, same downlink
	if second <= first {
		t.Errorf("concurrent incast flows did not serialize: %v then %v", first, second)
	}
	// The gap must be at least one flow's downlink serialization.
	if gap := sim.Duration(second - first); gap < sim.Duration(float64(n)/1e9*float64(sim.Second)) {
		t.Errorf("incast gap %v smaller than one serialization time", gap)
	}
}

// TestFatTreeUplinkCapsRate: the interior must cap an endpoint rate
// faster than the uplink — the same transfer must take longer across
// leaves on a slow uplink than the endpoint rate alone would predict.
func TestFatTreeUplinkCapsRate(t *testing.T) {
	slow := NewFatTree(sim.NewEngine(), "slow", 16, FatTreeConfig{Radix: 4, UplinkBps: 1e9})
	fast := NewFatTree(sim.NewEngine(), "fast", 16, FatTreeConfig{Radix: 4, UplinkBps: 100e9})
	const n = 1 << 20
	if s, f := slow.Deliver(0, 0, 5, n, 5.8e9), fast.Deliver(0, 0, 5, n, 5.8e9); s <= f {
		t.Errorf("1 GB/s uplink (%v) not slower than 100 GB/s uplink (%v)", s, f)
	}
}

func TestFatTreeCtrlDelay(t *testing.T) {
	ft := tree4(t)
	if got, want := ft.CtrlDelay(0, 1), switchLatency; got != want {
		t.Errorf("same-leaf ctrl delay %v, want %v", got, want)
	}
	cross := ft.CtrlDelay(0, 15)
	if want := 3*switchLatency + 2*uplinkLatency; cross != want {
		t.Errorf("cross-leaf ctrl delay %v, want %v", cross, want)
	}
	// Latency-only: control crossings never occupy data links.
	if ft.InteriorBytes() != 0 {
		t.Errorf("ctrl delay accounted %d interior bytes", ft.InteriorBytes())
	}
}

func TestByName(t *testing.T) {
	eng := sim.NewEngine()
	for _, name := range []string{"", "flat"} {
		tp, err := ByName(eng, name, 8, 5.8e9)
		if err != nil || tp != nil {
			t.Errorf("ByName(%q) = %v, %v; want nil topology", name, tp, err)
		}
	}
	ft, err := ByName(eng, "fattree", 40, 5.8e9)
	if err != nil {
		t.Fatal(err)
	}
	if l := ft.(*FatTree).Leaves(); l != 3 {
		t.Errorf("fattree over 40 ports has %d leaves, want 3 (radix 16)", l)
	}
	f4, err := ByName(eng, "fattree4", 8, 5.8e9)
	if err != nil {
		t.Fatal(err)
	}
	if l := f4.(*FatTree).Leaves(); l != 2 {
		t.Errorf("fattree4 over 8 ports has %d leaves, want 2 (radix 4)", l)
	}
	if _, err := ByName(eng, "torus", 8, 5.8e9); err == nil {
		t.Error("unknown topology name did not error")
	}
	// Every registered name must construct.
	for _, name := range Names() {
		if _, err := ByName(sim.NewEngine(), name, 8, 5.8e9); err != nil {
			t.Errorf("registered name %q failed: %v", name, err)
		}
	}
}
