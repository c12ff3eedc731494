package cluster

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/perfmodel"
)

// TestReservedArenasAreUnmapped builds, runs and drops DCFA worlds whose
// offload arenas are reserved (machine.Domain.Reserve), each staging one
// 1 MiB send, and checks that the process's mappings come back to where
// they started once the dropped worlds are collected. It sums the sizes
// of the mappings rather than counting them: the kernel merges adjacent
// anonymous mappings, so a leak of 1 600 arenas adds few lines but
// 25 GiB of address space.
func TestReservedArenasAreUnmapped(t *testing.T) {
	if _, err := os.Stat("/proc/self/maps"); err != nil {
		t.Skip("no /proc/self/maps")
	}
	const worlds, ranks, n = 200, 8, 1 << 20
	runWorld := func() {
		w := New(perfmodel.Default(), ranks).World(ModeDCFA, ranks)
		err := w.Run(func(r *core.Rank) error {
			p := r.Proc()
			switch r.ID() {
			case 0:
				return r.Send(p, 1, 0, core.Whole(r.Mem(n)))
			case 1:
				_, err := r.Recv(p, 0, 0, core.Whole(r.Mem(n)))
				return err
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if w.Rank(0).Stats.OffloadedSends != 1 {
			t.Fatalf("rank 0 offloaded %d sends, want 1", w.Rank(0).Stats.OffloadedSends)
		}
	}
	runtime.GC()
	start := mappedBytes(t)
	for i := 0; i < worlds; i++ {
		runWorld()
	}
	// Finalizers run after the cycle that finds a Domain unreachable, on
	// their own goroutine, so allow a few cycles. The slack, eight
	// worlds' arenas, is room for the runtime's own heap and, under
	// -race, its shadow memory (about 0.5 GiB) to grow.
	const slack = 8 * ranks * 16 << 20
	got := mappedBytes(t)
	for i := 0; i < 10 && got > start+slack; i++ {
		runtime.GC()
		got = mappedBytes(t)
	}
	t.Logf("mapped: %d MiB before the worlds, %d MiB after", start>>20, got>>20)
	if got > start+slack {
		t.Fatalf("%d MiB mapped after dropping %d worlds, %d MiB before", got>>20, worlds, start>>20)
	}
}

// mappedBytes sums the address ranges /proc/self/maps lists.
func mappedBytes(t *testing.T) uint64 {
	b, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var lo, hi uint64
		if _, err := fmt.Sscanf(line, "%x-%x", &lo, &hi); err != nil {
			t.Fatalf("maps line %q: %v", line, err)
		}
		sum += hi - lo
	}
	return sum
}
