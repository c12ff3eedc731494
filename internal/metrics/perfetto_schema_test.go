package metrics

// Schema validation for the Chrome trace-event export: every document
// the exporter produces must parse, use only known phase types, keep
// timestamps monotonic per span track, pair up B/E and s/f events, and
// declare every pid it references. The causal profiler's flow events
// ride on this exporter, so the validator covers them too.

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/sim"
)

// schemaEvent mirrors the full trace-event shape for validation.
type schemaEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	ID   string            `json:"id"`
	BP   string            `json:"bp"`
	Args map[string]string `json:"args"`
}

// validateChromeTrace checks data against the trace-event schema rules
// the exporter promises.
func validateChromeTrace(t *testing.T, data []byte) []schemaEvent {
	t.Helper()
	var doc struct {
		TraceEvents     []schemaEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	// Phase inventory and pid declarations.
	known := map[string]bool{"M": true, "X": true, "i": true, "s": true, "f": true, "B": true, "E": true}
	declared := map[int]bool{}
	for _, e := range doc.TraceEvents {
		if !known[e.Ph] {
			t.Errorf("unknown phase %q on event %q", e.Ph, e.Name)
		}
		if e.Ph == "M" && e.Name == "process_name" {
			if e.Args["name"] == "" {
				t.Errorf("process_name metadata for pid %d has no name", e.Pid)
			}
			declared[e.Pid] = true
		}
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "M" && !declared[e.Pid] {
			t.Errorf("event %q (ph=%s) references undeclared pid %d", e.Name, e.Ph, e.Pid)
		}
	}

	// Span events: non-negative durations, per-(pid,tid) monotone ts.
	type track struct{ pid, tid int }
	lastTS := map[track]float64{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X", "i", "B", "E":
			if e.Ph == "X" && e.Dur < 0 {
				t.Errorf("span %q has negative duration %v", e.Name, e.Dur)
			}
			tr := track{e.Pid, e.Tid}
			if prev, ok := lastTS[tr]; ok && e.Ts < prev {
				t.Errorf("track pid=%d tid=%d: ts went backwards (%v after %v) at %q",
					e.Pid, e.Tid, e.Ts, prev, e.Name)
			}
			lastTS[tr] = e.Ts
		}
	}

	// B/E events must pair up per track, never going negative.
	depth := map[track]int{}
	for _, e := range doc.TraceEvents {
		tr := track{e.Pid, e.Tid}
		switch e.Ph {
		case "B":
			depth[tr]++
		case "E":
			depth[tr]--
			if depth[tr] < 0 {
				t.Errorf("track pid=%d tid=%d: E without matching B at %q", e.Pid, e.Tid, e.Name)
			}
		}
	}
	for tr, d := range depth {
		if d != 0 {
			t.Errorf("track pid=%d tid=%d: %d unclosed B events", tr.pid, tr.tid, d)
		}
	}

	// Flow binding: every "s" start has exactly one "f" finish with the
	// same id, bp="e", and a finish time no earlier than the start.
	starts := map[string]schemaEvent{}
	finishes := map[string]int{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "s":
			if e.ID == "" {
				t.Errorf("flow start %q has no id", e.Name)
			}
			if _, dup := starts[e.ID]; dup {
				t.Errorf("duplicate flow start id %s", e.ID)
			}
			starts[e.ID] = e
		case "f":
			if e.BP != "e" {
				t.Errorf("flow finish %q (id %s) lacks bp=\"e\" binding", e.Name, e.ID)
			}
			finishes[e.ID]++
		}
	}
	for id := range starts {
		if finishes[id] != 1 {
			t.Errorf("flow id %s: %d finishes, want exactly 1", id, finishes[id])
		}
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "f" {
			continue
		}
		s, ok := starts[e.ID]
		if !ok {
			t.Errorf("flow finish id %s has no start", e.ID)
			continue
		}
		if e.Ts < s.Ts {
			t.Errorf("flow id %s finishes at %v before its start at %v", e.ID, e.Ts, s.Ts)
		}
	}
	return doc.TraceEvents
}

// schemaRegistry builds a registry with nested spans on two tracks plus
// one span left open (exported as an instant event).
func schemaRegistry() *Registry {
	reg := New()
	a := reg.Begin(100*sim.Microsecond, "rank0", "send").SetKind("eager")
	a.Child(120*sim.Microsecond, "rdma-write").End(180 * sim.Microsecond)
	a.End(200 * sim.Microsecond)
	b := reg.Begin(150*sim.Microsecond, "rank1", "recv").SetKind("eager")
	b.End(210 * sim.Microsecond)
	reg.Begin(220*sim.Microsecond, "rank1", "stuck") // never ended
	return reg
}

// TestChromeTraceSchema validates a plain span export.
func TestChromeTraceSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := schemaRegistry().WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	evs := validateChromeTrace(t, buf.Bytes())
	x, inst := 0, 0
	for _, e := range evs {
		switch e.Ph {
		case "X":
			x++
		case "i":
			inst++
		}
	}
	if x != 3 || inst != 1 {
		t.Errorf("got %d complete + %d instant events, want 3 + 1", x, inst)
	}
}

// TestChromeTraceFlowEvents validates flow arrows: cross-track binding,
// track creation for span-less endpoint actors, and schema conformance.
func TestChromeTraceFlowEvents(t *testing.T) {
	reg := schemaRegistry()
	flows := []Flow{
		{ID: 1, Name: "msg seq=0", Cat: "message",
			FromActor: "rank0", FromTS: int64(110 * sim.Microsecond),
			ToActor: "rank1", ToTS: int64(205 * sim.Microsecond)},
		{ID: 2, Name: "critical:wait", Cat: "critical-path",
			FromActor: "rank1", FromTS: int64(150 * sim.Microsecond),
			ToActor: "hca9", ToTS: int64(160 * sim.Microsecond)},
	}
	var buf bytes.Buffer
	if err := reg.WriteChromeTrace(&buf, flows); err != nil {
		t.Fatal(err)
	}
	evs := validateChromeTrace(t, buf.Bytes())

	pids := map[string]int{}
	for _, e := range evs {
		if e.Ph == "M" && e.Name == "process_name" {
			pids[e.Args["name"]] = e.Pid
		}
	}
	if pids["hca9"] == 0 {
		t.Error("flow endpoint hca9 has no track despite having no spans")
	}
	var s1, f1 *schemaEvent
	for i := range evs {
		e := &evs[i]
		if e.ID == "1" && e.Ph == "s" {
			s1 = e
		}
		if e.ID == "1" && e.Ph == "f" {
			f1 = e
		}
	}
	if s1 == nil || f1 == nil {
		t.Fatal("flow id 1 missing start or finish")
	}
	if s1.Pid != pids["rank0"] || f1.Pid != pids["rank1"] {
		t.Errorf("flow 1 binds pids %d→%d, want %d→%d", s1.Pid, f1.Pid, pids["rank0"], pids["rank1"])
	}

	// Export is byte-deterministic.
	var again bytes.Buffer
	if err := reg.WriteChromeTrace(&again, flows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("flow export not byte-identical across writes")
	}
}
