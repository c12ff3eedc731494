package core

import (
	"testing"
	"testing/quick"
)

// fakeArena builds an arena without verbs for allocator-only tests.
func fakeArena(size int) *offArena {
	return &offArena{free: []offRange{{0, size}}}
}

func TestArenaFirstFit(t *testing.T) {
	a := fakeArena(1000)
	r1, ok1 := a.alloc(100)
	r2, ok2 := a.alloc(200)
	if !ok1 || !ok2 {
		t.Fatal("allocation failed")
	}
	if r1.off != 0 || r2.off != 100 {
		t.Fatalf("offsets %d %d", r1.off, r2.off)
	}
	if _, ok := a.alloc(701); ok {
		t.Fatal("oversized allocation succeeded")
	}
}

func TestArenaReleaseCoalesces(t *testing.T) {
	a := fakeArena(300)
	r1, _ := a.alloc(100)
	r2, _ := a.alloc(100)
	r3, _ := a.alloc(100)
	a.release(r1)
	a.release(r3)
	if len(a.free) != 2 {
		t.Fatalf("free list %v", a.free)
	}
	a.release(r2) // must merge all three back into one range
	if len(a.free) != 1 || a.free[0] != (offRange{0, 300}) {
		t.Fatalf("free list after full release %v", a.free)
	}
	if _, ok := a.alloc(300); !ok {
		t.Fatal("full-arena allocation failed after coalesce")
	}
}

func TestArenaPeakTracking(t *testing.T) {
	a := fakeArena(1000)
	r1, _ := a.alloc(400)
	r2, _ := a.alloc(400)
	if a.inUse != 800 {
		t.Fatalf("in use %d at the peak, want 800", a.inUse)
	}
	a.release(r1)
	a.release(r2)
	if a.inUse != 0 {
		t.Fatalf("in use %d, want 0", a.inUse)
	}
}

func TestArenaWrongArenaPanics(t *testing.T) {
	a := fakeArena(100)
	b := fakeArena(100)
	r, _ := a.alloc(10)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-arena release did not panic")
		}
	}()
	b.release(r)
}

// Property: any alloc/release interleaving keeps free ranges disjoint,
// sorted and within bounds, and the total free+allocated is constant.
func TestQuickArenaInvariants(t *testing.T) {
	f := func(ops []uint8) bool {
		const size = 4096
		a := fakeArena(size)
		var live []offRegion
		liveBytes := 0
		for _, op := range ops {
			if op%2 == 0 || len(live) == 0 {
				n := int(op)%512 + 1
				if r, ok := a.alloc(n); ok {
					live = append(live, r)
					liveBytes += n
				}
			} else {
				i := int(op) % len(live)
				r := live[i]
				live = append(live[:i], live[i+1:]...)
				a.release(r)
				liveBytes -= r.n
			}
			// Invariants.
			freeBytes := 0
			prevEnd := -1
			for _, fr := range a.free {
				if fr.off >= fr.end || fr.off < 0 || fr.end > size {
					return false
				}
				if fr.off <= prevEnd {
					return false // overlapping or unsorted or uncoalesced-adjacent is tolerated only if gap >0
				}
				prevEnd = fr.end
				freeBytes += fr.end - fr.off
			}
			if freeBytes+liveBytes != size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
