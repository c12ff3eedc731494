package sim

import (
	"testing"
	"testing/quick"
)

func TestLinkOccupancy(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, "test", 0, 1e9) // 1 GB/s: 1 byte per ns
	if got := l.OccupancyFor(1000); got != 1000 {
		t.Fatalf("occupancy %v, want 1000ns", got)
	}
	if got := l.OccupancyFor(0); got != 0 {
		t.Fatalf("zero-byte occupancy %v", got)
	}
	if got := l.OccupancyFor(-5); got != 0 {
		t.Fatalf("negative-byte occupancy %v", got)
	}
}

func TestLinkSerializesTransfers(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, "test", 100, 1e9)
	// Two back-to-back reservations at t=0: second queues behind first.
	d1 := l.Reserve(1000)
	d2 := l.Reserve(1000)
	if d1 != 1100 {
		t.Fatalf("first done at %v, want 1100", d1)
	}
	if d2 != 2100 {
		t.Fatalf("second done at %v, want 2100 (queued)", d2)
	}
	if l.Bytes != 2000 {
		t.Fatalf("stats bytes=%d", l.Bytes)
	}
}

func TestLinkLatencyOverlaps(t *testing.T) {
	// Latency is propagation: a second transfer may start while the
	// first's last byte is still in flight.
	e := NewEngine()
	l := NewLink(e, "test", 1000, 1e9)
	d1 := l.Reserve(10) // occupies [0,10], arrives 1010
	d2 := l.Reserve(10) // occupies [10,20], arrives 1020
	if d1 != 1010 || d2 != 1020 {
		t.Fatalf("done times %v,%v want 1010,1020", d1, d2)
	}
}

func TestReserveRateOverridesCurve(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, "test", 10, 4e9)
	// 1000 bytes at an explicit 1 GB/s: 1000ns occupancy + 10ns latency.
	if got := l.ReserveRate(1000, 1e9); got != 1010 {
		t.Fatalf("done at %v, want 1010", got)
	}
	// Queues behind the first reservation.
	if got := l.ReserveRate(1000, 1e9); got != 2010 {
		t.Fatalf("second done at %v, want 2010", got)
	}
	if got := l.ReserveRate(0, 1e9); got != 2010 {
		t.Fatalf("zero-byte reserve at %v, want 2010", got)
	}
}

func TestReserveRateRejectsNonPositive(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, "test", 0, 1e9)
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive rate accepted")
		}
	}()
	l.ReserveRate(10, 0)
}

// Property: total completion time of n sequential reservations equals
// sum of occupancies plus one latency per transfer measured at arrival,
// and completion times are monotone.
func TestQuickLinkMonotone(t *testing.T) {
	f := func(sizes []uint16) bool {
		e := NewEngine()
		l := NewLink(e, "q", 77, 3.5e9)
		var last Time
		var sumOcc Duration
		for _, s := range sizes {
			n := int(s)
			d := l.Reserve(n)
			sumOcc += l.OccupancyFor(n)
			if d < last {
				return false
			}
			last = d
		}
		if len(sizes) == 0 {
			return true
		}
		// Final arrival = total occupancy + latency (all queued from t=0).
		return last == sumOcc+77
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
