package main

// The benchmark's manifest, BENCHMARK.json at the repository root, is
// generated from the Go tables (`manifest` subcommand) so the published
// names, units and bounds cannot drift from what the program reports; a
// test compares the committed file with this output.

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

// runSeconds is how long one driver-protocol run measures: about twelve
// fresh-process reps of the ~2 s workloads, seven of allreduce_ring_256.
// The driver's cap (4 + 22 x 4 runs and two builds in 3420 s) allows
// 36 s a run; a run ends within half a rep of runSeconds.
const runSeconds = 30

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, d := range workloads {
		if d.Gated {
			m.Workloads = append(m.Workloads, manifestWorkload{d.Name, d.Why})
		}
	}
	for _, e := range endToEnd {
		bound := e.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{e.Name, e.Unit, e.Better, &bound})
	}
	for _, p := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{p.Name, p.Unit, p.Better, nil})
	}
	return m
}
