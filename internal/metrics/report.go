package metrics

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/sim"
)

// CounterSnap is one counter in a snapshot.
type CounterSnap struct {
	Actor string `json:"actor"`
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnap is one gauge in a snapshot.
type GaugeSnap struct {
	Actor string `json:"actor"`
	Name  string `json:"name"`
	Value int64  `json:"value"`
	Max   int64  `json:"max"`
}

// HistSnap is one histogram in a snapshot.
type HistSnap struct {
	Actor   string  `json:"actor"`
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Min     int64   `json:"min"`
	Max     int64   `json:"max"`
	Mean    int64   `json:"mean"`
	Bounds  []int64 `json:"bounds"`
	Buckets []int64 `json:"buckets"`
}

// Snapshot is a sorted, export-ready copy of every instrument.
type Snapshot struct {
	Counters   []CounterSnap `json:"counters"`
	Gauges     []GaugeSnap   `json:"gauges"`
	Histograms []HistSnap    `json:"histograms"`
	Spans      int           `json:"spans"`
	OpenSpans  int           `json:"openSpans"`
}

// Snapshot copies every instrument in sorted (actor, name) order. A nil
// registry snapshots empty.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	for _, k := range sortedKeys(r.counters) {
		s.Counters = append(s.Counters, CounterSnap{k.Actor, k.Name, r.counters[k].Value()})
	}
	for _, k := range sortedKeys(r.gauges) {
		g := r.gauges[k]
		s.Gauges = append(s.Gauges, GaugeSnap{k.Actor, k.Name, g.Value(), g.Max()})
	}
	for _, k := range sortedKeys(r.hists) {
		h := r.hists[k]
		bounds, counts := h.Buckets()
		s.Histograms = append(s.Histograms, HistSnap{
			Actor: k.Actor, Name: k.Name,
			Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(), Mean: h.Mean(),
			Bounds: bounds, Buckets: counts,
		})
	}
	s.Spans = len(r.spans)
	s.OpenSpans = r.OpenSpans()
	return s
}

// WriteJSON emits the snapshot as indented JSON (deterministic: sorted
// slices, no maps).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteSummary prints a human-readable report in sorted order, with
// derived MR-cache hit rates. Output is bit-identical across runs of
// the same workload. A nil registry prints a header only.
func (r *Registry) WriteSummary(w io.Writer) {
	s := r.Snapshot()
	fmt.Fprintln(w, "== metrics ==")
	if len(s.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, c := range s.Counters {
			fmt.Fprintf(w, "  %-14s %-36s %d\n", c.Actor, c.Name, c.Value)
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, g := range s.Gauges {
			fmt.Fprintf(w, "  %-14s %-36s %d (max %d)\n", g.Actor, g.Name, g.Value, g.Max)
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintln(w, "histograms:")
		for _, h := range s.Histograms {
			if h.Count == 0 {
				fmt.Fprintf(w, "  %-14s %-36s empty\n", h.Actor, h.Name)
				continue
			}
			fmt.Fprintf(w, "  %-14s %-36s count=%d min=%v mean=%v max=%v\n",
				h.Actor, h.Name, h.Count, sim.Time(h.Min), sim.Time(h.Mean), sim.Time(h.Max))
		}
	}
	// Derived: MR-cache hit rate per actor that recorded hits or misses.
	derived := false
	for _, c := range s.Counters {
		if c.Name != "mrcache.hits" {
			continue
		}
		var misses int64
		for _, m := range s.Counters {
			if m.Actor == c.Actor && m.Name == "mrcache.misses" {
				misses = m.Value
				break
			}
		}
		if c.Value+misses == 0 {
			continue
		}
		if !derived {
			fmt.Fprintln(w, "derived:")
			derived = true
		}
		rate := float64(c.Value) / float64(c.Value+misses) * 100
		fmt.Fprintf(w, "  %-14s %-36s %.1f%% (%d/%d)\n",
			c.Actor, "mrcache.hit-rate", rate, c.Value, c.Value+misses)
	}
	fmt.Fprintf(w, "spans: %d (%d open)\n", s.Spans, s.OpenSpans)
}
