package sim

import (
	"fmt"
	"sort"
	"testing"
)

// TestCalendarMatchesSortedReference drives the calendar with seeded
// pushes (a third of them at the clock itself, more within a few ns of
// it, the rest up to 2^40 ns out, from clocks as high as 2^61), pops and
// lookahead peeks, and checks every answer against a slice sorted by
// (time, seq): the order the engine's determinism rests on. The push
// rate varies with the seed, from a calendar that is mostly empty (the
// lone event's path) to one hundreds deep.
func TestCalendarMatchesSortedReference(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		g := NewSplitMix(seed)
		var c calendar
		var ref []event
		var seq uint64
		held := &Proc{}
		now := Time(g.Next() % (1 << (seed % 62)))
		pushes := 2 + seed%4 // out of 8 steps
		for step := 0; step < 4000 || len(ref) > 0; step++ {
			if c.n != len(ref) {
				t.Fatalf("seed %d step %d: calendar holds %d events, reference %d", seed, step, c.n, len(ref))
			}
			op := g.Next() % 8
			switch {
			case step < 4000 && (op < pushes || len(ref) == 0):
				at := now
				switch g.Next() % 3 {
				case 1:
					at += Time(g.Next() % 4)
				case 2:
					at += Time(g.Next() % (1 << 40))
				}
				seq++
				c.push(event{at: at, seq: seq, proc: held})
				ref = append(ref, event{at: at, seq: seq})
			case op == pushes:
				want := ref[0].at
				for _, ev := range ref {
					want = min(want, ev.at)
				}
				if got := c.earliest(); got != want {
					t.Fatalf("seed %d step %d: earliest %v, want %v", seed, step, got, want)
				}
			default:
				sort.Slice(ref, func(i, j int) bool {
					return ref[i].at < ref[j].at || ref[i].at == ref[j].at && ref[i].seq < ref[j].seq
				})
				got := c.pop()
				if got.at != ref[0].at || got.seq != ref[0].seq {
					t.Fatalf("seed %d step %d: popped (%v, %d), want (%v, %d)", seed, step, got.at, got.seq, ref[0].at, ref[0].seq)
				}
				ref = ref[1:]
				now = got.at
			}
		}
		for k := c.free; k != 0; k = c.nodes[k].next {
			if c.nodes[k].ev.proc != nil {
				t.Fatalf("seed %d: free node %d still pins its process", seed, k)
			}
		}
	}
}

// BenchmarkCalendar holds the calendar at a fixed depth and times one
// pop plus one push a few µs past the popped time, some at the same
// instant: the engine's steady state, one event dispatched and one
// scheduled. The unit is one pop+push; it must allocate nothing.
func BenchmarkCalendar(b *testing.B) {
	for _, depth := range []int{1, 256, 4096} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			g := NewSplitMix(uint64(depth))
			var delta [1024]Time
			for i := range delta {
				delta[i] = Time(g.Next() % 4096)
			}
			var c calendar
			var seq uint64
			for seq < uint64(depth) {
				seq++
				c.push(event{at: delta[seq%1024], seq: seq})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := c.pop()
				seq++
				c.push(event{at: ev.at + delta[i%1024], seq: seq})
			}
		})
	}
}
