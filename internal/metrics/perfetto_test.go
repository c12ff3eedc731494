package metrics

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/sim"
)

// decoded mirrors traceEvent for re-parsing exporter output in tests.
type decoded struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Args map[string]string `json:"args"`
}

func parseTrace(t *testing.T, b []byte) []decoded {
	t.Helper()
	var tr struct {
		TraceEvents     []decoded `json:"traceEvents"`
		DisplayTimeUnit string    `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	return tr.TraceEvents
}

func TestWriteChromeTrace(t *testing.T) {
	r := New()
	send := r.Begin(10*sim.Microsecond, "rank0", "send")
	send.SetKind("sender-rzv")
	rdma := send.Child(12*sim.Microsecond, "rdma-read")
	rdma.AttrInt("bytes", 65536)
	rdma.End(30 * sim.Microsecond)
	send.End(32 * sim.Microsecond)
	recv := r.Begin(11*sim.Microsecond, "rank1", "recv")
	recv.SetKind("sender-rzv")
	recv.End(33 * sim.Microsecond)
	r.Begin(40*sim.Microsecond, "hca0", "stuck") // left open on purpose

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	evs := parseTrace(t, buf.Bytes())

	// 3 actors * 2 metadata events + 3 X + 1 instant.
	names := map[string]int{} // process_name -> pid
	var xEvents, instants []decoded
	for _, e := range evs {
		switch e.Ph {
		case "M":
			if e.Name == "process_name" {
				names[e.Args["name"]] = e.Pid
			}
		case "X":
			xEvents = append(xEvents, e)
		case "i":
			instants = append(instants, e)
		}
	}
	if len(names) != 3 {
		t.Fatalf("process names %v", names)
	}
	// Actors get pids in sorted order: hca0 < rank0 < rank1.
	if !(names["hca0"] < names["rank0"] && names["rank0"] < names["rank1"]) {
		t.Fatalf("pid order %v", names)
	}
	if len(xEvents) != 3 {
		t.Fatalf("X events %d", len(xEvents))
	}
	if len(instants) != 1 || instants[0].Name != "stuck" {
		t.Fatalf("instants %v", instants)
	}

	var sendEv, childEv decoded
	for _, e := range xEvents {
		switch e.Name {
		case "send":
			sendEv = e
		case "rdma-read":
			childEv = e
		}
	}
	if sendEv.Ts != 10 || sendEv.Dur != 22 { // µs
		t.Fatalf("send ts/dur %v/%v", sendEv.Ts, sendEv.Dur)
	}
	if sendEv.Cat != "sender-rzv" {
		t.Fatalf("send cat %q", sendEv.Cat)
	}
	if sendEv.Pid != names["rank0"] {
		t.Fatal("send on wrong track")
	}
	if childEv.Args["parent"] != sendEv.Args["span_id"] {
		t.Fatalf("child parent=%q, span_id=%q", childEv.Args["parent"], sendEv.Args["span_id"])
	}
	if childEv.Args["bytes"] != "65536" {
		t.Fatalf("child args %v", childEv.Args)
	}

	// Determinism: same spans, same bytes.
	var buf2 bytes.Buffer
	if err := r.WriteChromeTrace(&buf2, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("trace export not bit-identical")
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := New().WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if evs := parseTrace(t, buf.Bytes()); len(evs) != 0 {
		t.Fatalf("events %v", evs)
	}
}
