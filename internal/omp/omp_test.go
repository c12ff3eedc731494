package omp

import (
	"sync/atomic" // sums what Execute's real worker threads compute
	"testing"

	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

func TestRegionCostSingleThread(t *testing.T) {
	plat := perfmodel.Default()
	team := NewTeam(plat, 1, machine.MicMem)
	// 30e6 items at 30e6 items/s on one Phi thread = 1 s; no fork cost.
	if got := team.RegionCost(int(plat.PhiCoreRate)); got != sim.Second {
		t.Fatalf("cost %v, want 1s", got)
	}
}

func TestRegionCostScalesWithThreads(t *testing.T) {
	plat := perfmodel.Default()
	t1 := NewTeam(plat, 1, machine.MicMem).RegionCost(1 << 20)
	t56 := NewTeam(plat, 56, machine.MicMem).RegionCost(1 << 20)
	ratio := float64(t1) / float64(t56)
	s := plat.PhiScaling(56)
	if ratio < s*0.9 || ratio > s*1.1 {
		t.Fatalf("56-thread speedup %.1f, expected ≈S(56)=%.1f", ratio, s)
	}
}

func TestHostTeamFasterPerThread(t *testing.T) {
	plat := perfmodel.Default()
	phi := NewTeam(plat, 1, machine.MicMem).RegionCost(1 << 20)
	host := NewTeam(plat, 1, machine.HostMem).RegionCost(1 << 20)
	if host >= phi {
		t.Fatal("host core must outrun a Phi core")
	}
}

func TestHostScalingClampedToCores(t *testing.T) {
	plat := perfmodel.Default()
	team := NewTeam(plat, 100, machine.HostMem)
	if team.Scaling() != float64(plat.HostCores) {
		t.Fatalf("host scaling %v, want clamp at %d cores", team.Scaling(), plat.HostCores)
	}
}

func TestParallelForNilBodyChargesOnly(t *testing.T) {
	plat := perfmodel.Default()
	eng := sim.NewEngine()
	team := NewTeam(plat, 4, machine.MicMem)
	var elapsed sim.Duration
	eng.Spawn("compute", func(p *sim.Proc) {
		start := p.Now()
		team.ParallelFor(p, 1<<20)
		elapsed = p.Now() - start
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed != team.RegionCost(1<<20) {
		t.Fatalf("charged %v, want %v", elapsed, team.RegionCost(1<<20))
	}
}

func TestExecuteReturnsItsChunk(t *testing.T) {
	// Callers that finish a chunked loop after the join (the stencil's
	// in-place sweep) rebuild the chunks from the returned length.
	for _, threads := range []int{1, 2, 3, 8} {
		team := NewTeam(perfmodel.Default(), threads, machine.MicMem)
		for _, n := range []int{1, 2, 7, 160} {
			ends := make([]int64, n) // ends[lo] is hi for each chunk [lo, hi)
			chunk := team.Execute(n, func(lo, hi int) { atomic.StoreInt64(&ends[lo], int64(hi)) })
			if chunk < 1 {
				t.Fatalf("%d threads, n=%d: chunk %d", threads, n, chunk)
			}
			for lo := range ends {
				want := int64(0)
				if lo%chunk == 0 {
					want = int64(min(lo+chunk, n))
				}
				if ends[lo] != want {
					t.Fatalf("%d threads, n=%d, chunk %d: a chunk from %d ends at %d, want %d", threads, n, chunk, lo, ends[lo], want)
				}
			}
		}
	}
	if chunk := NewTeam(perfmodel.Default(), 4, machine.MicMem).Execute(0, func(lo, hi int) {}); chunk != 0 {
		t.Fatalf("no items: chunk %d, want 0", chunk)
	}
}

func TestZeroAndNegativeItems(t *testing.T) {
	plat := perfmodel.Default()
	team := NewTeam(plat, 4, machine.MicMem)
	if team.RegionCost(0) != plat.OMPForkCost(4) {
		t.Fatal("zero items should cost only fork/join")
	}
	if team.RegionCost(-5) != plat.OMPForkCost(4) {
		t.Fatal("negative items should clamp to zero work")
	}
}

func TestThreadsClampedToOne(t *testing.T) {
	team := NewTeam(perfmodel.Default(), 0, machine.MicMem)
	if team.Threads != 1 {
		t.Fatalf("threads %d, want 1", team.Threads)
	}
}
