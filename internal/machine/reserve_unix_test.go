//go:build unix

package machine

import (
	"runtime"
	"testing"
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
