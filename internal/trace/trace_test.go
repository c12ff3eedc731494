package trace

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestLogAndEvents(t *testing.T) {
	r := New(0)
	r.Log(5*sim.Microsecond, "rank0", "eager-send", "to=%d", 1)
	r.Log(9*sim.Microsecond, "rank1", "eager-recv", "from=%d", 0)
	if r.Len() != 2 || len(r.Events()) != 2 {
		t.Fatalf("events %d", r.Len())
	}
	want := Event{T: 5 * sim.Microsecond, Actor: "rank0", Kind: "eager-send", Msg: "to=1"}
	if got := r.Events()[0]; got != want {
		t.Fatalf("first event %+v, want %+v", got, want)
	}
}

func TestCapDropsOldest(t *testing.T) {
	r := New(3)
	for i := 0; i < 10; i++ {
		r.Log(sim.Time(i), "a", "k", "%d", i)
	}
	ev := r.Events()
	if len(ev) != 3 {
		t.Fatalf("retained %d", len(ev))
	}
	if ev[0].Msg != "7" || ev[1].Msg != "8" || ev[2].Msg != "9" {
		t.Fatalf("wrong retained window: %v", ev)
	}
	if r.Dropped != 7 {
		t.Fatalf("dropped %d", r.Dropped)
	}
}

func TestCapOverflowKindAccounting(t *testing.T) {
	r := New(4)
	kinds := []string{"a", "b", "a", "c", "a", "b"} // retained: c a b + one a
	for i, k := range kinds {
		r.Log(sim.Time(i), "x", k, "%d", i)
	}
	// Retained window is events 2..5: a c a b.
	if got := r.Count("a"); got != 2 {
		t.Fatalf("Count(a)=%d", got)
	}
	if got := r.Count("b"); got != 1 {
		t.Fatalf("Count(b)=%d", got)
	}
	if got := r.Count("c"); got != 1 {
		t.Fatalf("Count(c)=%d", got)
	}
	if e, ok := r.Find("a"); !ok || e.Msg != "2" {
		t.Fatalf("Find(a)=%v %v, want first retained", e, ok)
	}
	if r.Dropped != 2 {
		t.Fatalf("dropped %d", r.Dropped)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Log(0, "a", "k", "x")
	if r.Count("k") != 0 {
		t.Fatal("nil recorder counted")
	}
	if _, ok := r.Find("k"); ok {
		t.Fatal("nil recorder found")
	}
	if r.Len() != 0 || r.Events() != nil {
		t.Fatal("nil recorder retained")
	}
	if r.Summary() != "" {
		t.Fatal("nil recorder summarized")
	}
}

func TestCountFindSummary(t *testing.T) {
	r := New(0)
	r.Log(1, "a", "x", "first")
	r.Log(2, "a", "y", "mid")
	r.Log(3, "a", "x", "second")
	if r.Count("x") != 2 || r.Count("y") != 1 || r.Count("z") != 0 {
		t.Fatal("counts wrong")
	}
	e, ok := r.Find("x")
	if !ok || e.Msg != "first" {
		t.Fatalf("find %v %v", e, ok)
	}
	s := r.Summary()
	if !strings.Contains(s, "x=2") || !strings.Contains(s, "y=1") {
		t.Fatalf("summary %q", s)
	}
}

// BenchmarkLogBounded demonstrates that appends into a full bounded
// recorder are O(1): the per-op cost must not scale with Cap (the old
// implementation shifted the whole retained window on every append).
func BenchmarkLogBounded(b *testing.B) {
	for _, cap := range []int{64, 4096, 65536} {
		b.Run(sizeName(cap), func(b *testing.B) {
			r := New(cap)
			for i := 0; i < cap; i++ { // pre-fill to steady state
				r.Log(sim.Time(i), "a", "k", "warm")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Log(sim.Time(i), "a", "k", "hot")
			}
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1<<10 && n%(1<<10) == 0:
		return sizeName(n/(1<<10)) + "Ki"
	default:
		var b []byte
		for n > 0 {
			b = append([]byte{byte('0' + n%10)}, b...)
			n /= 10
		}
		return string(b)
	}
}
