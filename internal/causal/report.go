package causal

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// Report is the full causal-analysis result for one run.
type Report struct {
	Workload string   `json:"workload,omitempty"`
	SimTime  sim.Time `json:"sim_time_ns"`
	Ranks    int      `json:"ranks"`
	Events   int      `json:"events"`
	Messages int      `json:"messages"`

	// Breakdown attributes every nanosecond of the run's critical path
	// to a category; values sum exactly to SimTime.
	Breakdown map[string]sim.Duration `json:"critical_path_breakdown_ns"`
	// Steps is the number of critical-path segments.
	Steps int `json:"critical_path_steps"`

	Patterns []Pattern  `json:"patterns"`
	Load     []RankLoad `json:"load"`
	Issues   []Issue    `json:"issues,omitempty"`

	steps []PathStep
	graph *Graph
}

// Analyze builds the graph, runs every detector, and assembles the
// report. end is the engine's final virtual time.
func Analyze(workload string, events []Event, end sim.Time) *Report {
	g := Build(events, end)
	steps := g.CriticalPath()
	pats, load := g.Analyze()
	return &Report{
		Workload:  workload,
		SimTime:   end,
		Ranks:     len(g.Ranks),
		Events:    len(events),
		Messages:  len(g.Messages),
		Breakdown: Breakdown(steps),
		Steps:     len(steps),
		Patterns:  pats,
		Load:      load,
		Issues:    g.Check(),
		steps:     steps,
		graph:     g,
	}
}

// Graph returns the underlying happens-before graph.
func (r *Report) Graph() *Graph { return r.graph }

// Pattern returns the named pattern summary, or nil.
func (r *Report) Pattern(name string) *Pattern {
	for i := range r.Patterns {
		if r.Patterns[i].Name == name {
			return &r.Patterns[i]
		}
	}
	return nil
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders the ranked human-readable report.
func (r *Report) WriteText(w io.Writer) error {
	name := r.Workload
	if name == "" {
		name = "run"
	}
	fmt.Fprintf(w, "== causal profile: %s ==\n", name)
	fmt.Fprintf(w, "sim time  %s   ranks %d   events %d   messages %d\n\n",
		fmtDur(sim.Duration(r.SimTime)), r.Ranks, r.Events, r.Messages)

	fmt.Fprintf(w, "critical path (%d steps), time attribution:\n", r.Steps)
	var total sim.Duration
	for _, cd := range SortedCategories(r.Breakdown) {
		share := 0.0
		if r.SimTime > 0 {
			share = 100 * float64(cd.Dur) / float64(r.SimTime)
		}
		total += cd.Dur
		fmt.Fprintf(w, "  %-15s %12s  %5.1f%%\n", cd.Cat, fmtDur(cd.Dur), share)
	}
	fmt.Fprintf(w, "  %-15s %12s  100.0%%\n\n", "total", fmtDur(total))

	fmt.Fprintf(w, "inefficiency patterns (ranked by cost):\n")
	any := false
	for _, p := range r.Patterns {
		if p.Count == 0 {
			continue
		}
		any = true
		fmt.Fprintf(w, "  %-28s x%-5d cost %s\n", p.Name, p.Count, fmtDur(p.Cost))
		for _, in := range p.Worst {
			fmt.Fprintf(w, "      %-32s at %-12s cost %s\n", in.Where, fmtDur(sim.Duration(in.At)), fmtDur(in.Cost))
		}
	}
	if !any {
		fmt.Fprintf(w, "  (none detected)\n")
	}

	fmt.Fprintf(w, "\nper-rank load (wait time = blocked in MPI):\n")
	maxWait := sim.Duration(0)
	for _, l := range r.Load {
		if l.WaitTime > maxWait {
			maxWait = l.WaitTime
		}
	}
	for _, l := range r.Load {
		bar := ""
		if maxWait > 0 {
			n := int(20 * l.WaitTime / maxWait)
			for i := 0; i < n; i++ {
				bar += "#"
			}
		}
		fmt.Fprintf(w, "  rank%-3d wait %12s  coll-wait %12s  %s\n",
			l.Rank, fmtDur(l.WaitTime), fmtDur(l.CollWait), bar)
	}
	if n := len(r.Load); n > 1 {
		var sum sim.Duration
		minWait := r.Load[0].WaitTime
		for _, l := range r.Load {
			sum += l.WaitTime
			if l.WaitTime < minWait {
				minWait = l.WaitTime
			}
		}
		fmt.Fprintf(w, "  imbalance: max-min %s, mean %s\n",
			fmtDur(maxWait-minWait), fmtDur(sum/sim.Duration(n)))
	}

	if len(r.Issues) > 0 {
		fmt.Fprintf(w, "\ngraph inconsistencies (%d):\n", len(r.Issues))
		sorted := append([]Issue(nil), r.Issues...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Kind < sorted[j].Kind })
		for _, is := range sorted {
			fmt.Fprintf(w, "  [%s] %s\n", is.Kind, is.Msg)
		}
	}
	return nil
}

// fmtDur renders a duration with fixed units so reports are stable.
func fmtDur(d sim.Duration) string {
	switch {
	case d >= 1_000_000_000:
		return fmt.Sprintf("%.3fs", float64(d)/1e9)
	case d >= 1_000_000:
		return fmt.Sprintf("%.3fms", float64(d)/1e6)
	case d >= 1_000:
		return fmt.Sprintf("%.3fµs", float64(d)/1e3)
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}
