package metrics

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// The Chrome trace-event format (loadable by Perfetto and
// chrome://tracing): a JSON object with a traceEvents array. Complete
// spans become "ph":"X" duration events; spans never ended become
// "ph":"i" instant events so they stay visible. Each actor (rank,
// daemon, HCA, PCIe complex) is its own process track, named via
// "ph":"M" metadata events. Timestamps are virtual microseconds.
//
// Flow events ("ph":"s" start / "ph":"f" finish with bp:"e") draw
// arrows between tracks — the causal profiler uses them to render
// send→recv message edges and the critical path in the trace viewer.

type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	ID   string            `json:"id,omitempty"`
	BP   string            `json:"bp,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// Flow is one arrow between two actor tracks: a "ph":"s" event at
// (FromActor, FromTS) bound to a "ph":"f" event at (ToActor, ToTS).
// IDs must be unique per flow within one trace.
type Flow struct {
	ID   uint64
	Name string
	Cat  string

	FromActor string
	FromTS    int64 // virtual nanoseconds
	ToActor   string
	ToTS      int64 // virtual nanoseconds
}

// WriteChromeTrace exports every span as Chrome trace-event JSON, plus
// one arrow per flow (nil when there are none). Flow endpoints
// referencing actors with no spans still get a track. Output is
// deterministic: actors are assigned pids in sorted order and events
// are emitted in span-begin order. (encoding/json writes map keys
// sorted, so the args objects are stable too.) A nil registry writes
// an empty trace.
func (r *Registry) WriteChromeTrace(w io.Writer, flows []Flow) error {
	tr := chromeTrace{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ns"}
	spans := r.Spans()

	// Assign one pid per actor, sorted for stability. Flow endpoints
	// count as actors so their tracks exist even without spans.
	actorSet := make(map[string]bool)
	for _, s := range spans {
		actorSet[s.Actor] = true
	}
	for _, f := range flows {
		actorSet[f.FromActor] = true
		actorSet[f.ToActor] = true
	}
	actors := make([]string, 0, len(actorSet))
	for a := range actorSet {
		actors = append(actors, a)
	}
	sort.Strings(actors)
	pids := make(map[string]int, len(actors))
	for i, a := range actors {
		pid := i + 1
		pids[a] = pid
		tr.TraceEvents = append(tr.TraceEvents,
			traceEvent{Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
				Args: map[string]string{"name": a}},
			traceEvent{Name: "process_sort_index", Ph: "M", Pid: pid, Tid: 0,
				Args: map[string]string{"sort_index": strconv.Itoa(pid)}},
		)
	}

	usec := func(ns int64) float64 { return float64(ns) / 1000 }
	for _, s := range spans {
		args := make(map[string]string, len(s.Attrs)+2)
		for _, a := range s.Attrs {
			args[a.Key] = a.Val
		}
		args["span_id"] = strconv.FormatUint(s.ID, 10)
		if s.Parent != 0 {
			args["parent"] = strconv.FormatUint(s.Parent, 10)
		}
		ev := traceEvent{
			Name: s.Name,
			Cat:  s.Kind,
			Ts:   usec(int64(s.Start)),
			Pid:  pids[s.Actor],
			Tid:  1,
			Args: args,
		}
		if s.Ended {
			ev.Ph = "X"
			ev.Dur = usec(int64(s.Finish - s.Start))
		} else {
			ev.Ph = "i"
			ev.S = "t"
		}
		tr.TraceEvents = append(tr.TraceEvents, ev)
	}

	for _, f := range flows {
		id := strconv.FormatUint(f.ID, 10)
		tr.TraceEvents = append(tr.TraceEvents,
			traceEvent{Name: f.Name, Cat: f.Cat, Ph: "s", Ts: usec(f.FromTS),
				Pid: pids[f.FromActor], Tid: 1, ID: id},
			traceEvent{Name: f.Name, Cat: f.Cat, Ph: "f", BP: "e", Ts: usec(f.ToTS),
				Pid: pids[f.ToActor], Tid: 1, ID: id},
		)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}
