//go:build unix

package machine

import (
	"bytes"
	"os"
	"runtime"
	"testing"
	"unsafe"
)

// TestReserveIsNotHeap: a 16 MiB Reserve, the offload arena's default,
// must not come from the Go heap.
func TestReserveIsNotHeap(t *testing.T) {
	const n = 16 << 20
	d := NewNode(0).Host
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b := d.Reserve(n)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= n/16 {
		t.Fatalf("Reserve(%d) grew the Go heap by %d bytes, want < %d", n, grew, n/16)
	}
	if len(b.Data) != n || b.Data[n-1] != 0 {
		t.Fatalf("reserved buffer: %d bytes, last %#x", len(b.Data), b.Data[n-1])
	}
	b.Data[n-1] = 1
}

// TestReserveKeepsMappingsFew: each Reserve is a mapping of its own, but
// the kernel merges adjacent anonymous mappings, so 100 000 reserves of
// 9 KiB add far fewer than 100 000 entries to the process's map, which
// is what vm.max_map_count (65 530 by default) bounds. Every piece ends
// at its length, and a request under a page is Alloc and maps nothing.
func TestReserveKeepsMappingsFew(t *testing.T) {
	if _, err := os.Stat("/proc/self/maps"); err != nil {
		t.Skip("no /proc/self/maps")
	}
	const reserves, n = 100_000, 9 << 10
	d := NewNode(0).Mic
	d.Reserve(pageSize - 1)
	if d.reserved != nil {
		t.Fatalf("Reserve(%d) made a mapping, want Alloc", pageSize-1)
	}
	before := mapEntries(t)
	for i := 0; i < reserves; i++ {
		b := d.Reserve(n)
		if len(b.Data) != n || cap(b.Data) != n || uintptr(unsafe.Pointer(&b.Data[0]))%pageSize != 0 {
			t.Fatalf("reserve %d: len %d cap %d at %p, want %d on a page", i, len(b.Data), cap(b.Data), &b.Data[0], n)
		}
	}
	if got := len(d.reserved.maps); got != reserves {
		t.Fatalf("%d reserves made %d mappings, want one each", reserves, got)
	}
	if grew := mapEntries(t) - before; grew >= reserves/100 {
		t.Fatalf("%d reserves of %d bytes added %d entries to /proc/self/maps, want < %d", reserves, n, grew, reserves/100)
	}
}

// mapEntries counts the lines of /proc/self/maps.
func mapEntries(t *testing.T) int {
	b, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(b, []byte("\n"))
}
