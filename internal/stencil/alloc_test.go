package stencil

import (
	"runtime"
	"testing"

	"repro/internal/perfmodel"
)

// TestExchangeAllocatesOnlyHandles runs a 2-rank stencil at two
// iteration counts: each added sweep may allocate on the heap only the
// request handles its exchange returns (one Isend and one Irecv on each
// rank), not the list that holds them. A few mallocs of the Go runtime's
// own land in either run at random, so the bound allows half a malloc a
// sweep above the handles; an allocation made every sweep exceeds it.
func TestExchangeAllocatesOnlyHandles(t *testing.T) {
	mallocs := func(iters int) uint64 {
		pr := Params{N: 64, Iters: iters, Procs: 2, Threads: 1}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := RunDCFA(perfmodel.Default(), pr, true); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	const short, long = 40, 1040
	mallocs(short) // first run: package-level pools and caches fill
	a, b := mallocs(short), mallocs(long)
	perSweep := (float64(b) - float64(a)) / (long - short)
	t.Logf("%d mallocs at %d sweeps, %d at %d: %.2f a sweep", a, short, b, long, perSweep)
	if handles := 2.0 * 2; perSweep > handles+0.5 {
		t.Fatalf("%.2f heap allocations a sweep, want at most the %v request handles", perSweep, handles)
	}
}
