package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Cell labels of the compare table.
const (
	labelOK         = "ok"
	labelRegressed  = "regressed"
	labelImproved   = "improved"
	labelUnresolved = "unresolved"
)

// loadBounds reads the end-to-end regression bounds from BENCHMARK.json
// so compare judges by the published contract; without the file (a
// report compared away from the repository) the built-in table, which a
// test keeps equal to it, stands in.
func loadBounds(path string) map[string]float64 {
	bounds := map[string]float64{}
	for _, m := range endToEnd {
		bounds[m.Name] = m.Bound
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return bounds
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		fmt.Fprintf(logw, "benchmark: %s: %v (using built-in bounds)\n", path, err)
		return bounds
	}
	for _, m := range doc.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// spread is the interquartile range of the reps as a share of their
// median.
func (s stat) spread() float64 { return ratio(s.Q3-s.Q1, s.Median) }

// judge labels one lower-is-better metric of candidate b against
// baseline a. A difference counts only when it exceeds the bound; when
// the run-to-run spread is itself wider than the bound and the two sets
// of runs overlap, the data cannot resolve a difference of that size
// and the cell says so instead of claiming "ok".
func judge(a, b stat, bound float64) (label string, delta float64) {
	delta = ratio(b.Value-a.Value, a.Value)
	wide := max(a.spread(), b.spread()) > bound
	separated := b.Max < a.Min || b.Min > a.Max
	switch {
	case a.N == 0 || b.N == 0:
		return labelUnresolved, delta
	case wide && !separated:
		return labelUnresolved, delta
	case delta > bound:
		return labelRegressed, delta
	case delta < -bound:
		return labelImproved, delta
	}
	return labelOK, delta
}

// cmdCompare prints, per workload and end-to-end metric, both values,
// both quartile spreads, the change and its bound, and a label. It
// exits 1 on any regressed cell, on a simulated time that grew, or on a
// higher share of failed ops.
func cmdCompare(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare BASELINE.json CANDIDATE.json")
		return 2
	}
	a, err := loadReport(args[0])
	if err == nil {
		var b *report
		if b, err = loadReport(args[1]); err == nil {
			return compareReports(a, b, loadBounds(benchmarkJSON), w)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func compareReports(a, b *report, bounds map[string]float64, w io.Writer) int {
	if a.SchemaVersion != b.SchemaVersion || a.Scale != b.Scale {
		fmt.Fprintf(w, "reports are not comparable: schema %d/%s vs %d/%s\n", a.SchemaVersion, a.Scale, b.SchemaVersion, b.Scale)
		return 2
	}
	bad := false
	fmt.Fprintf(w, "%-20s %-12s %12s %12s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "base", "cand", "iqr_a%", "iqr_b%", "delta%", "bound%", "verdict")
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			fmt.Fprintf(w, "%-20s missing from the candidate report\n", wa.Name)
			bad = true
			continue
		}
		if wa.DefSHA != wb.DefSHA {
			fmt.Fprintf(w, "%-20s workload definitions differ (%.12s vs %.12s): not comparable\n", wa.Name, wa.DefSHA, wb.DefSHA)
			bad = true
			continue
		}
		for _, m := range endToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			label, delta := judge(sa, sb, bounds[m.Name])
			fmt.Fprintf(w, "%-20s %-12s %12.4f %12.4f %8.2f %8.2f %+8.2f %7.1f  %s\n",
				wa.Name, m.Name, sa.Value, sb.Value, 100*sa.spread(), 100*sb.spread(), 100*delta, 100*bounds[m.Name], label)
			bad = bad || label == labelRegressed
		}
		// The simulated answer has no noise: any growth is a regression
		// of the model, any change at all is a model change.
		label := labelOK
		switch {
		case wb.SimTimeUS > wa.SimTimeUS:
			label, bad = labelRegressed, true
		case wb.SimTimeUS < wa.SimTimeUS:
			label = labelImproved
		}
		fmt.Fprintf(w, "%-20s %-12s %12.3f %12.3f %8s %8s %+8.4f %7.1f  %s\n",
			wa.Name, "sim_time_us", wa.SimTimeUS, wb.SimTimeUS, "-", "-", 100*ratio(wb.SimTimeUS-wa.SimTimeUS, wa.SimTimeUS), 0.0, label)

		var diff []string
		for k, va := range wa.Exact {
			if wb.Exact[k] != va {
				diff = append(diff, k)
			}
		}
		sort.Strings(diff)
		same := "identical"
		if wa.Fingerprint != wb.Fingerprint {
			same = "differ"
		}
		fmt.Fprintf(w, "%-20s fingerprints %s; exact counts that differ: %v\n", wa.Name, same, diff)
		if fa, fb := ratio(float64(wa.OpsFailed), float64(wa.OpsAttempted)), ratio(float64(wb.OpsFailed), float64(wb.OpsAttempted)); fb > fa {
			fmt.Fprintf(w, "%-20s failed-op share rose from %.6f to %.6f\n", wa.Name, fa, fb)
			bad = true
		}
	}
	if bad {
		return 1
	}
	return 0
}
