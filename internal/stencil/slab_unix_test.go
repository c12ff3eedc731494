//go:build unix && !race

package stencil

import (
	"runtime"
	"testing"

	"repro/internal/machine"
)

// TestSlabIsNotHeap: a slab's two grids live as long as the world and
// are reserved (machine.Domain.Reserve), so building a paper-sized slab
// grows the Go heap by its flags alone, not by its 3.3 MB of cells.
func TestSlabIsNotHeap(t *testing.T) {
	const rows, w = 160, 1282
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l := newSlab(machine.NewNode(0).Mic, rows, w, true)
	runtime.ReadMemStats(&after)
	cells := 2 * (rows + 2) * w * 8
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= uint64(cells/16) {
		t.Fatalf("a %d-byte slab grew the Go heap by %d bytes, want < %d", cells, grew, cells/16)
	}
	if g := f64view(l.cur.Data); g[0] != 1 || g[w] != 0 {
		t.Fatalf("slab starts %v, %v; want the top row hot and the next cold", g[0], g[w])
	}
}
