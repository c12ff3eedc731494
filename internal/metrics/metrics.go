// Package metrics is the deterministic, virtual-time-only telemetry
// layer of the simulated DCFA-MPI stack: counters, gauges and
// fixed-bucket histograms keyed by (actor, name), plus message-lifecycle
// spans with parent links (span.go) and exporters (report.go,
// perfetto.go).
//
// Determinism rules, enforced by construction:
//
//   - every recorded value derives from virtual time (sim.Time) or from
//     protocol state — never from the wall clock;
//   - instrumentation is passive: recording never sleeps, never blocks
//     and never schedules engine events, so a metrics-enabled run
//     dispatches the exact same event sequence (same Engine.Fingerprint)
//     as a disabled one;
//   - all reporting iterates keys in sorted order, so two runs of the
//     same workload produce bit-identical reports;
//   - every handle and every method is nil-safe: a nil *Registry hands
//     out nil handles whose operations are no-ops, so un-instrumented
//     hot paths pay only a nil check.
package metrics

import (
	"sort"

	"repro/internal/sim"
)

// Key identifies one instrument: Actor is the emitting track (rank0,
// hca1, dcfa/node0, pcie/node0), Name the measurement.
type Key struct {
	Actor string
	Name  string
}

// Registry owns every instrument and span of one telemetry session. It
// may span multiple worlds/engines; values aggregate.
type Registry struct {
	counters map[Key]*Counter
	gauges   map[Key]*Gauge
	hists    map[Key]*Histogram
	spans    []*Span
	nextSpan uint64
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[Key]*Counter),
		gauges:   make(map[Key]*Gauge),
		hists:    make(map[Key]*Histogram),
	}
}

// Counter returns (creating on first use) the counter (actor, name).
// A nil registry returns a nil handle, whose methods are no-ops.
func (r *Registry) Counter(actor, name string) *Counter {
	if r == nil {
		return nil
	}
	k := Key{actor, name}
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns (creating on first use) the gauge (actor, name).
func (r *Registry) Gauge(actor, name string) *Gauge {
	if r == nil {
		return nil
	}
	k := Key{actor, name}
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns (creating on first use) the latency histogram
// (actor, name): virtual-time observations bucketed by TimeBuckets.
func (r *Registry) Histogram(actor, name string) *Histogram {
	if r == nil {
		return nil
	}
	k := Key{actor, name}
	h, ok := r.hists[k]
	if !ok {
		h = &Histogram{counts: make([]int64, len(TimeBuckets)+1)}
		r.hists[k] = h
	}
	return h
}

// Counter is a monotonically-adjusted int64 (protocol counts, bytes).
type Counter struct{ v int64 }

// Add adds n. Safe on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Inc adds one. Safe on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is an instantaneous level (pinned bytes, queue depth) that also
// tracks its high-water mark.
type Gauge struct{ v, max int64 }

// Add moves the level by d. Safe on a nil gauge.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v += d
	if g.v > g.max {
		g.max = g.v
	}
}

// Value returns the current level (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Max returns the high-water mark (0 for nil).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max
}

// Histogram is a fixed-bucket distribution of virtual-time spans in
// nanoseconds. Bucket i counts observations v <= TimeBuckets[i] (and
// > TimeBuckets[i-1]); the last bucket counts overflows.
type Histogram struct {
	counts []int64
	n      int64
	sum    int64
	min    int64
	max    int64
}

// Observe records one value. Safe on a nil histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	i := sort.Search(len(TimeBuckets), func(i int) bool { return v <= TimeBuckets[i] })
	h.counts[i]++
}

// ObserveDuration records a virtual-time span.
func (h *Histogram) ObserveDuration(d sim.Duration) { h.Observe(int64(d)) }

// Count returns how many values were observed (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the total of observed values (0 for nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min returns the smallest observation (0 when empty or nil).
func (h *Histogram) Min() int64 {
	if h == nil {
		return 0
	}
	return h.min
}

// Max returns the largest observation (0 when empty or nil).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Mean returns the integer mean (0 when empty or nil).
func (h *Histogram) Mean() int64 {
	if h == nil || h.n == 0 {
		return 0
	}
	return h.sum / h.n
}

// Buckets returns (bound, count) pairs including the +Inf overflow
// bucket, for exporters and tests.
func (h *Histogram) Buckets() ([]int64, []int64) {
	if h == nil {
		return nil, nil
	}
	return TimeBuckets, h.counts
}

// TimeBuckets are the histograms' latency bounds: powers of two from
// 1 µs to ~0.5 s of virtual time, in nanoseconds.
var TimeBuckets = func() []int64 {
	b := make([]int64, 0, 20)
	for us := int64(1); us <= 1<<19; us <<= 1 {
		b = append(b, us*1000)
	}
	return b
}()

// sortedKeys returns the map's keys ordered by (Actor, Name).
func sortedKeys[V any](m map[Key]V) []Key {
	keys := make([]Key, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Actor != keys[j].Actor {
			return keys[i].Actor < keys[j].Actor
		}
		return keys[i].Name < keys[j].Name
	})
	return keys
}
