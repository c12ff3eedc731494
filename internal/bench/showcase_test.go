package bench

// Acceptance tests for the telemetry layer: the protocol showcase's
// spans must reconstruct all four §IV-B3 protocols, the Chrome trace
// export must be valid and carry every rank's track, and the whole
// pipeline must be bit-identical across runs.

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// runShowcase runs the showcase on a fresh registry.
func runShowcase(t *testing.T) (*metrics.Registry, sim.Time) {
	t.Helper()
	reg := metrics.New()
	final, err := (&Env{Metrics: reg}).ProtocolShowcase(perfmodel.Default())
	if err != nil {
		t.Fatal(err)
	}
	return reg, final
}

// TestShowcaseSpansReconstructProtocols checks that both ranks' message
// spans carry all four protocol kinds, and that the wire-level child
// spans nest under a send or recv lifecycle span.
func TestShowcaseSpansReconstructProtocols(t *testing.T) {
	reg, _ := runShowcase(t)
	if n := reg.OpenSpans(); n != 0 {
		t.Fatalf("%d spans left open", n)
	}
	byID := map[uint64]*metrics.Span{}
	kinds := map[string]map[string]int{} // actor → kind → count
	for _, s := range reg.Spans() {
		byID[s.ID] = s
		if s.Kind != "" {
			if kinds[s.Actor] == nil {
				kinds[s.Actor] = map[string]int{}
			}
			kinds[s.Actor][s.Kind]++
		}
	}
	for _, actor := range []string{"rank0", "rank1"} {
		for _, k := range []string{"eager", "sender-rzv", "recv-rzv", "simultaneous-rzv"} {
			if kinds[actor][k] == 0 {
				t.Errorf("%s: no span classified %s; got %v", actor, k, kinds[actor])
			}
		}
	}
	// Child spans nest under a message-lifecycle span on the same track.
	nested := 0
	for _, s := range reg.Spans() {
		switch s.Name {
		case "rdma-read", "rdma-write", "offload-sync":
			p := byID[s.Parent]
			if p == nil {
				t.Errorf("span %s#%d has no parent", s.Name, s.ID)
				continue
			}
			if p.Name != "send" && p.Name != "recv" {
				t.Errorf("span %s#%d nests under %q, want send or recv", s.Name, s.ID, p.Name)
			}
			if p.Actor != s.Actor {
				t.Errorf("span %s#%d on track %q but parent on %q", s.Name, s.ID, s.Actor, p.Actor)
			}
			nested++
		}
	}
	if nested == 0 {
		t.Error("no wire-level child spans recorded")
	}
	// The offload-staged phase ran.
	if got := reg.Counter("rank0", "offload.staged-bytes").Value(); got < 1<<20 {
		t.Errorf("offload.staged-bytes = %d, want >= 1 MiB", got)
	}
}

// traceEvent mirrors the subset of the Chrome trace-event schema the
// test needs.
type traceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Cat  string            `json:"cat"`
	Pid  int               `json:"pid"`
	Dur  float64           `json:"dur"`
	Args map[string]string `json:"args"`
}

// TestShowcaseChromeTraceExport validates the Perfetto export: parseable
// JSON, a named track per actor, at least one complete span per rank,
// and all four protocol categories present.
func TestShowcaseChromeTraceExport(t *testing.T) {
	reg, _ := runShowcase(t)
	var buf bytes.Buffer
	if err := reg.WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	trackPid := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			trackPid[e.Args["name"]] = e.Pid
		}
	}
	spansPerPid := map[int]int{}
	cats := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		spansPerPid[e.Pid]++
		if e.Cat != "" {
			cats[e.Cat] = true
		}
	}
	for _, actor := range []string{"rank0", "rank1"} {
		pid, ok := trackPid[actor]
		if !ok {
			t.Fatalf("no track named %s in trace (tracks: %v)", actor, trackPid)
		}
		if spansPerPid[pid] == 0 {
			t.Errorf("track %s has no complete spans", actor)
		}
	}
	for _, k := range []string{"eager", "sender-rzv", "recv-rzv", "simultaneous-rzv"} {
		if !cats[k] {
			t.Errorf("trace has no %s category; got %v", k, cats)
		}
	}
}

// TestShowcaseDeterministic requires two fresh runs to produce the same
// final virtual time and byte-identical summary, JSON, and trace
// exports.
func TestShowcaseDeterministic(t *testing.T) {
	reg1, t1 := runShowcase(t)
	reg2, t2 := runShowcase(t)
	if t1 != t2 {
		t.Fatalf("final virtual times differ: %v vs %v", t1, t2)
	}
	var sum1, sum2, tr1, tr2, js1, js2 bytes.Buffer
	reg1.WriteSummary(&sum1)
	reg2.WriteSummary(&sum2)
	if err := reg1.WriteChromeTrace(&tr1, nil); err != nil {
		t.Fatal(err)
	}
	if err := reg2.WriteChromeTrace(&tr2, nil); err != nil {
		t.Fatal(err)
	}
	if err := reg1.WriteJSON(&js1); err != nil {
		t.Fatal(err)
	}
	if err := reg2.WriteJSON(&js2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sum1.Bytes(), sum2.Bytes()) {
		t.Error("summaries differ across runs")
	}
	if !bytes.Equal(tr1.Bytes(), tr2.Bytes()) {
		t.Error("Chrome traces differ across runs")
	}
	if !bytes.Equal(js1.Bytes(), js2.Bytes()) {
		t.Error("JSON snapshots differ across runs")
	}
}
