package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := New()
	c := r.Counter("rank0", "proto.eager")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter %d", c.Value())
	}
	if r.Counter("rank0", "proto.eager") != c {
		t.Fatal("counter not memoized")
	}

	g := r.Gauge("rank0", "mrcache.pinned-bytes")
	g.Add(100)
	g.Add(200)
	g.Add(-250)
	if g.Value() != 50 || g.Max() != 300 {
		t.Fatalf("gauge %d max %d", g.Value(), g.Max())
	}

	h := r.Histogram("rank0", "send.latency")
	for _, v := range []int64{5, 1000, 1001, 3000, 1 << 30} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Min() != 5 || h.Max() != 1<<30 || h.Sum() != 5006+1<<30 {
		t.Fatalf("hist stats: n=%d min=%d max=%d sum=%d", h.Count(), h.Min(), h.Max(), h.Sum())
	}
	_, counts := h.Buckets()
	want := map[int]int64{0: 2, 1: 1, 2: 1, len(TimeBuckets): 1} // <=1µs, <=2µs, <=4µs, +Inf
	for i, c := range counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, c, want[i], counts)
		}
	}
}

func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("a", "n")
	c.Inc()
	c.Add(5)
	if c != nil || c.Value() != 0 {
		t.Fatal("nil counter")
	}
	g := r.Gauge("a", "n")
	g.Add(1)
	if g != nil || g.Value() != 0 || g.Max() != 0 {
		t.Fatal("nil gauge")
	}
	h := r.Histogram("a", "n")
	h.Observe(1)
	h.ObserveDuration(2)
	b, cs := h.Buckets()
	if h != nil || h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 || b != nil || cs != nil {
		t.Fatal("nil histogram")
	}
	s := r.Begin(0, "a", "span")
	if s != nil {
		t.Fatal("nil span")
	}
	s.SetKind("k").Attr("a", "b").AttrInt("n", 1)
	c2 := s.Child(1, "child")
	if c2 != nil {
		t.Fatal("nil child")
	}
	s.End(2)
	if r.Spans() != nil || r.OpenSpans() != 0 {
		t.Fatal("nil registry spans")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || snap.Spans != 0 {
		t.Fatal("nil snapshot")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	r.WriteSummary(&buf)
	if err := r.WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
}

// TestNilHandlesAllocateNothing: instrumentation that is off costs no
// heap allocation on the paths every message takes. AttrInt used to
// format its integer before noticing the span was nil.
func TestNilHandlesAllocateNothing(t *testing.T) {
	var (
		s *Span
		c *Counter
		h *Histogram
	)
	n := int64(12345678) // wide enough that formatting it must allocate
	for _, row := range []struct {
		name string
		op   func()
	}{
		{"Span.Attr", func() { s.Attr("k", "v") }},
		{"Span.AttrInt", func() { s.AttrInt("seq", n) }},
		{"Span.Child", func() { s.Child(1, "child") }},
		{"Span.End", func() { s.End(2) }},
		{"Counter.Add", func() { c.Add(n) }},
		{"Histogram.Observe", func() { h.Observe(n) }},
		{"Histogram.ObserveDuration", func() { h.ObserveDuration(sim.Duration(n)) }},
	} {
		if got := testing.AllocsPerRun(100, row.op); got != 0 {
			t.Errorf("%s on a nil handle: %v allocations per call, want 0", row.name, got)
		}
	}
}

func TestSpanLifecycle(t *testing.T) {
	r := New()
	root := r.Begin(10*sim.Microsecond, "rank0", "send")
	root.SetKind("sender-rzv")
	child := root.Child(12*sim.Microsecond, "rdma-read")
	child.AttrInt("bytes", 65536)
	if child.Parent != root.ID || child.Actor != "rank0" {
		t.Fatalf("child linkage: parent=%d actor=%q", child.Parent, child.Actor)
	}
	if r.OpenSpans() != 2 {
		t.Fatalf("open %d", r.OpenSpans())
	}
	child.End(20 * sim.Microsecond)
	child.End(99 * sim.Microsecond) // idempotent
	if d := child.Finish - child.Start; d != 8*sim.Microsecond {
		t.Fatalf("duration %v", d)
	}
	root.End(25 * sim.Microsecond)
	if r.OpenSpans() != 0 {
		t.Fatalf("open %d", r.OpenSpans())
	}
	if root.Kind != "sender-rzv" {
		t.Fatalf("kind %q", root.Kind)
	}
	spans := r.Spans()
	if len(spans) != 2 || spans[0] != root || spans[1] != child {
		t.Fatal("span order")
	}
}

func TestSummaryAndJSONDeterministic(t *testing.T) {
	build := func() *Registry {
		r := New()
		// Insert in non-sorted order; reports must come out sorted.
		r.Counter("rank1", "proto.eager").Add(4)
		r.Counter("rank0", "mrcache.misses").Add(1)
		r.Counter("rank0", "mrcache.hits").Add(3)
		r.Gauge("hca0", "qp.depth").Add(7)
		r.Histogram("rank0", "send.latency").ObserveDuration(3 * sim.Microsecond)
		s := r.Begin(0, "rank0", "op")
		s.End(1)
		r.Begin(2, "rank1", "open-op")
		return r
	}
	var a, b bytes.Buffer
	build().WriteSummary(&a)
	build().WriteSummary(&b)
	if a.String() != b.String() {
		t.Fatalf("summary not bit-identical:\n%s\n---\n%s", a.String(), b.String())
	}
	out := a.String()
	for _, want := range []string{
		"== metrics ==",
		"mrcache.hits",
		"mrcache.hit-rate",
		"75.0% (3/4)",
		"spans: 2 (1 open)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	// Sorted order: rank0 counters before rank1.
	if strings.Index(out, "mrcache.hits") > strings.Index(out, "proto.eager") {
		t.Fatalf("counters not sorted:\n%s", out)
	}

	var j1, j2 bytes.Buffer
	if err := build().WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if j1.String() != j2.String() {
		t.Fatal("JSON not bit-identical")
	}
	var snap Snapshot
	if err := json.Unmarshal(j1.Bytes(), &snap); err != nil {
		t.Fatalf("JSON invalid: %v", err)
	}
	if len(snap.Counters) != 3 || snap.Spans != 2 || snap.OpenSpans != 1 {
		t.Fatalf("snapshot %+v", snap)
	}
	if snap.Counters[0].Actor != "rank0" || snap.Counters[2].Actor != "rank1" {
		t.Fatalf("snapshot order %+v", snap.Counters)
	}
}

func TestTimeBuckets(t *testing.T) {
	if len(TimeBuckets) != 20 {
		t.Fatalf("len %d", len(TimeBuckets))
	}
	if TimeBuckets[0] != int64(sim.Microsecond) {
		t.Fatalf("first %d", TimeBuckets[0])
	}
	for i := 1; i < len(TimeBuckets); i++ {
		if TimeBuckets[i] != 2*TimeBuckets[i-1] {
			t.Fatalf("not doubling at %d", i)
		}
	}
}

// The bench guard: un-instrumented hot paths hold nil handles, and
// recording through them must stay a branch — no allocation, no map
// work. A regression here means every send/recv in a metrics-disabled
// run pays real overhead.
func BenchmarkNilCounterAdd(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkNilHistogramObserve(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkNilSpan(b *testing.B) {
	var r *Registry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := r.Begin(sim.Time(i), "a", "op")
		s.SetKind("k")
		s.End(sim.Time(i + 1))
	}
}

func BenchmarkLiveCounterAdd(b *testing.B) {
	c := New().Counter("a", "n")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}
