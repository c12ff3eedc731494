//go:build linux && !race

package stencil

import (
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/machine"
	"repro/internal/omp"
	"repro/internal/perfmodel"
)

// TestSweepTouchesOneGrid: a sweep updates the grid in place and keeps
// its scratch rows in the second buffer, so 720 sweeps of one
// stencil_8x56 rank's slab from the paper's initial condition, which
// compute every row from sweep 160 on, leave resident in the second
// buffer only pages that hold an edge row (0, 1, rows and rows+1, which
// the exchange posts at odd parity) or a scratch row (1, 2, 3 and rows,
// for a one-thread team's one chunk). A sweep that wrote its rows into
// the second buffer, as a two-grid sweep does, would leave all of its
// 1.66 MB resident.
func TestSweepTouchesOneGrid(t *testing.T) {
	pr := PaperParams(8, 56)
	l := newSlab(machine.NewNode(0).Mic, pr.N/pr.Procs, pr.Width(), true)
	data := l.edge.Data
	// Transparent huge pages would back a written page's whole 2 MiB
	// neighbourhood on a host that enables them for every mapping.
	if err := syscall.Madvise(data, syscall.MADV_NOHUGEPAGE); err != nil {
		t.Skipf("madvise: %v", err)
	}
	team := omp.NewTeam(perfmodel.Default(), 1, machine.MicMem)
	for s := 0; s < 720; s++ {
		l.compute(team)
	}
	if n := computedRows(l); n != l.rows {
		t.Fatalf("the last sweep computed %d of %d rows", n, l.rows)
	}
	page := syscall.Getpagesize()
	vec := make([]byte, (len(data)+page-1)/page)
	if _, _, errno := syscall.Syscall(syscall.SYS_MINCORE, uintptr(unsafe.Pointer(&data[0])),
		uintptr(len(data)), uintptr(unsafe.Pointer(&vec[0]))); errno != 0 {
		t.Fatalf("mincore: %v", errno)
	}
	rowBytes, resident := l.w*8, 0
	for i, v := range vec {
		if v&1 == 0 {
			continue
		}
		resident++
		first, last := i*page/rowBytes, min(((i+1)*page-1)/rowBytes, l.rows+1)
		if first > 3 && last < l.rows {
			t.Errorf("page %d of the second buffer, rows %d to %d, is resident; only edge and scratch rows may be", i, first, last)
		}
	}
	t.Logf("%d of the second buffer's %d pages resident", resident, len(vec))
}
