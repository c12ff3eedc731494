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
// offload arenas, eager rings and packet slots are reserved
// (machine.Domain.Reserve), each running an 8-byte all-to-all and
// staging one 1 MiB send, and checks that the process's mappings come
// back to where they started once the dropped worlds are collected.
// It sums the sizes of the mappings rather than counting them: the
// kernel merges adjacent anonymous mappings, so a leak of 1 600 arenas
// adds few lines but 25 GiB of address space.
func TestReservedArenasAreUnmapped(t *testing.T) {
	if _, err := os.Stat("/proc/self/maps"); err != nil {
		t.Skip("no /proc/self/maps")
	}
	const worlds, ranks, n = 200, 8, 1 << 20
	runWorld := func() {
		w := New(perfmodel.Default(), ranks).World(ModeDCFA, ranks)
		err := w.Run(func(r *core.Rank) error {
			p := r.Proc()
			// An 8-byte all-to-all writes every pair's ring and
			// every rank's packet slot.
			if err := r.Alltoall(p, core.Whole(r.Mem(8*ranks)), core.Whole(r.Mem(8*ranks)), 8); err != nil {
				return err
			}
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

// TestPairBuffersAreNotHeap: an eight-rank DCFA world connects eagerly,
// so bootstrapping it builds 56 pair halves, each with a 64-slot eager
// ring (about 29 MB in all), beside each rank's packet slot. They are
// reserved, so the bootstrap grows the Go heap by less than 4 MiB.
func TestPairBuffersAreNotHeap(t *testing.T) {
	const ranks = 8
	c := New(perfmodel.Default(), ranks)
	w := c.World(ModeDCFA, ranks)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := w.Run(func(*core.Rank) error { return nil }); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	var pairBytes int64
	for _, node := range c.Nodes {
		pairBytes += node.Mic.BytesLive
	}
	if want := int64(ranks * (ranks - 1) * w.Cfg.EagerSlots * w.Cfg.EagerMax); pairBytes < want {
		t.Fatalf("card domains hold %d bytes after bootstrap, want at least %d of rings", pairBytes, want)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 4<<20 {
		t.Fatalf("bootstrapping %d ranks (%d bytes of pair buffers) grew the Go heap by %d bytes, want < %d", ranks, pairBytes, grew, 4<<20)
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
