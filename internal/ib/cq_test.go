package ib

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// The completion-queue rows of the verbs conformance table: a CQ is a
// ring of at most Depth entries that hands completions back in the order
// the hardware pushed them, whatever the ring's backing array is doing.

// cqRig is one CQ of the given depth and a process to poll it from.
func cqRig(t *testing.T, depth int, body func(p *sim.Proc, cq *CQ)) {
	t.Helper()
	r := newRig()
	cq := r.h0.Open(machine.HostMem).CreateCQ(depth)
	r.eng.Spawn("poll", func(p *sim.Proc) { body(p, cq) })
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCQOrderAcrossWrapAndGrowth pushes and polls in bursts that make
// the ring wrap many times and grow twice while it holds entries. WRIDs
// come out in push order and Len is right after every step.
func TestCQOrderAcrossWrapAndGrowth(t *testing.T) {
	cqRig(t, 64, func(p *sim.Proc, cq *CQ) {
		var next, want uint64 // next WRID to push, next expected out
		check := func(step string) {
			if got := cq.Len(); got != int(next-want) {
				t.Fatalf("%s: Len() = %d, want %d", step, got, next-want)
			}
		}
		push := func(n int) {
			for i := 0; i < n; i++ {
				cq.push(CQE{WRID: next})
				next++
				check("push")
			}
		}
		poll := func(n int) {
			out := make([]CQE, n)
			if got := cq.PollInto(p, out); got != n {
				t.Fatalf("PollInto returned %d of %d queued, room for %d", got, cq.Len()+got, n)
			}
			for _, e := range out {
				if e.WRID != want {
					t.Fatalf("polled WRID %d, want %d", e.WRID, want)
				}
				want++
			}
			check("poll")
		}
		// Wrap a small ring: the head walks round a 4-entry array.
		for i := 0; i < 10; i++ {
			push(3)
			poll(3)
		}
		if c := cq.entries.Cap(); c != 4 {
			t.Errorf("backing array %d after bursts of 3, want 4", c)
		}
		// Grow while wrapped: the head is mid-array when the ring fills.
		push(3)
		poll(2)
		push(9) // 10 queued: 4 -> 8 -> 16, twice unwrapping
		poll(4)
		push(40) // 46 queued: to 64
		poll(46)
		if cq.Len() != 0 {
			t.Errorf("Len() = %d after draining", cq.Len())
		}
	})
}

// TestCQShortPollLeavesTheRest: PollInto takes len(out) entries and no
// more; Poll takes at most max; the rest stay queued, in order.
func TestCQShortPollLeavesTheRest(t *testing.T) {
	cqRig(t, 16, func(p *sim.Proc, cq *CQ) {
		for id := uint64(1); id <= 5; id++ {
			cq.push(CQE{WRID: id})
		}
		var out [2]CQE
		if n := cq.PollInto(p, out[:]); n != 2 || out[0].WRID != 1 || out[1].WRID != 2 {
			t.Fatalf("PollInto(2) = %d %+v", n, out)
		}
		if cq.Len() != 3 {
			t.Fatalf("Len() = %d after a short poll of 5, want 3", cq.Len())
		}
		if n := cq.PollInto(p, nil); n != 0 || cq.Len() != 3 {
			t.Fatalf("PollInto(nil) = %d, Len() = %d", n, cq.Len())
		}
		rest := cq.Poll(p, 8)
		if len(rest) != 3 || rest[0].WRID != 3 || rest[2].WRID != 5 {
			t.Fatalf("Poll(8) = %+v, want WRIDs 3..5", rest)
		}
		if cq.Poll(p, 8) != nil {
			t.Error("Poll on an empty CQ returned entries")
		}
	})
}

// TestCQOverflowAtDepth: Depth entries fit, the next one panics and is
// counted, and the queued entries are untouched.
func TestCQOverflowAtDepth(t *testing.T) {
	cqRig(t, 8, func(p *sim.Proc, cq *CQ) {
		for id := uint64(0); id < 8; id++ {
			cq.push(CQE{WRID: id})
		}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "CQ overflow") {
					t.Errorf("pushing entry Depth+1 panicked %q, want a CQ overflow", msg)
				}
			}()
			cq.push(CQE{WRID: 8})
		}()
		if cq.Overflows != 1 || cq.Len() != 8 {
			t.Errorf("Overflows = %d, Len() = %d after one overflow, want 1 and 8", cq.Overflows, cq.Len())
		}
		if got := cq.Poll(p, 8); len(got) != 8 || got[7].WRID != 7 {
			t.Errorf("polled %+v after the overflow", got)
		}
	})
}

// TestCQBackingFollowsOccupancyNotDepth: core gives every rank a CQ of
// depth 1<<16; one that never holds more than 3 entries must not pay for
// 65536 (at 56 bytes an entry that is 3.5 MiB a rank).
func TestCQBackingFollowsOccupancyNotDepth(t *testing.T) {
	cqRig(t, 1<<16, func(p *sim.Proc, cq *CQ) {
		if c := cq.entries.Cap(); c != 0 {
			t.Errorf("a new CQ has a backing array of %d", c)
		}
		var out [3]CQE
		for i := 0; i < 1000; i++ {
			for k := 0; k < 3; k++ {
				cq.push(CQE{WRID: uint64(i)})
			}
			cq.PollInto(p, out[:])
		}
		if c := cq.entries.Cap(); c > 8 {
			t.Errorf("backing array %d after holding at most 3 entries, want at most 8", c)
		}
	})
}
