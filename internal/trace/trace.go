// Package trace records protocol events on the virtual timeline for
// debugging and for inspecting protocol behavior in tests (which
// protocol a message took, when an RTS crossed an RTR, how credits
// flowed). Recording is off unless a Recorder is installed, and the
// hot path pays only a nil check.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Event is one timeline entry.
type Event struct {
	T     sim.Time
	Actor string
	Kind  string
	Msg   string
}

// Recorder accumulates events in order, up to a capacity fixed by New
// (0, and the zero value, record unboundedly). Once full it is a ring:
// each append overwrites the oldest entry in place, so Log is O(1)
// whatever the capacity.
type Recorder struct {
	Dropped int64 // events overwritten once the ring was full

	cap   int            // retained events at most (0 = unbounded)
	buf   []Event        // ring storage
	start int            // index of the oldest retained event
	kinds map[string]int // retained events per kind, for O(1) Count
}

// New returns a recorder bounded to cap events.
func New(cap int) *Recorder { return &Recorder{cap: cap} }

// Log appends an event. Safe to call on a nil recorder.
func (r *Recorder) Log(t sim.Time, actor, kind, format string, args ...any) {
	if r == nil {
		return
	}
	if r.kinds == nil {
		r.kinds = make(map[string]int)
	}
	e := Event{T: t, Actor: actor, Kind: kind, Msg: fmt.Sprintf(format, args...)}
	if len(r.buf) == r.cap && r.cap > 0 {
		// Full: overwrite the oldest slot.
		r.forget(r.buf[r.start].Kind)
		r.buf[r.start] = e
		r.start = (r.start + 1) % r.cap
		r.Dropped++
	} else {
		r.buf = append(r.buf, e)
	}
	r.kinds[kind]++
}

// forget decrements the retained count for kind.
func (r *Recorder) forget(kind string) {
	r.kinds[kind]--
	if r.kinds[kind] == 0 {
		delete(r.kinds, kind)
	}
}

// Len returns how many events are retained.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Events returns the retained events oldest-first, as a copy.
func (r *Recorder) Events() []Event {
	if r.Len() == 0 {
		return nil
	}
	out := make([]Event, len(r.buf))
	for i := range out {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}

// each calls f on every retained event, oldest first.
func (r *Recorder) each(f func(Event) bool) {
	for i := range r.buf {
		if !f(r.buf[(r.start+i)%len(r.buf)]) {
			return
		}
	}
}

// Count returns how many events of the given kind were retained. O(1).
func (r *Recorder) Count(kind string) int {
	if r == nil {
		return 0
	}
	return r.kinds[kind]
}

// Find returns the first retained event of the kind, if any.
func (r *Recorder) Find(kind string) (Event, bool) {
	var found Event
	ok := false
	if r != nil && r.kinds[kind] > 0 {
		r.each(func(e Event) bool {
			if e.Kind == kind {
				found, ok = e, true
				return false
			}
			return true
		})
	}
	return found, ok
}

// Summary aggregates counts per kind, in order of first appearance
// among retained events.
func (r *Recorder) Summary() string {
	if r == nil {
		return ""
	}
	seen := map[string]bool{}
	var order []string
	r.each(func(e Event) bool {
		if !seen[e.Kind] {
			seen[e.Kind] = true
			order = append(order, e.Kind)
		}
		return true
	})
	parts := make([]string, 0, len(order))
	for _, k := range order {
		parts = append(parts, fmt.Sprintf("%s=%d", k, r.kinds[k]))
	}
	return strings.Join(parts, " ")
}
