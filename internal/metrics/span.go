package metrics

import (
	"strconv"

	"repro/internal/sim"
)

// Attr is one span annotation, kept as an ordered list (never a map) so
// exports are reproducible.
type Attr struct {
	Key string
	Val string
}

// Span is one timed interval on an actor's track: a message lifecycle
// (send/recv from post to completion), a delegated command round trip,
// a wire transfer, a DMA copy. Child spans link to their parent by ID
// and share the parent's track, which is how the Perfetto export
// renders the RTS→RDMA→DONE nesting of one rendezvous.
type Span struct {
	ID     uint64
	Parent uint64 // 0 = root
	Actor  string
	Name   string
	// Kind classifies the resolved protocol (eager, sender-rzv,
	// receiver-rzv, simultaneous-rzv, self) and maps to the Perfetto
	// category.
	Kind   string
	Start  sim.Time
	Finish sim.Time
	Ended  bool
	Attrs  []Attr

	reg *Registry
}

// Begin opens a root span on actor's track at virtual time t. A nil
// registry returns a nil span, whose methods are all no-ops.
func (r *Registry) Begin(t sim.Time, actor, name string) *Span {
	if r == nil {
		return nil
	}
	r.nextSpan++
	s := &Span{ID: r.nextSpan, Actor: actor, Name: name, Start: t, reg: r}
	r.spans = append(r.spans, s)
	return s
}

// Child opens a sub-span on the same track, linked to s. Safe on nil.
func (s *Span) Child(t sim.Time, name string) *Span {
	if s == nil {
		return nil
	}
	c := s.reg.Begin(t, s.Actor, name)
	c.Parent = s.ID
	return c
}

// SetKind classifies the span, overwriting any earlier classification
// (protocol mis-predictions resolve to a different kind than first
// assumed). Safe on nil.
func (s *Span) SetKind(k string) *Span {
	if s != nil {
		s.Kind = k
	}
	return s
}

// SetKindOnce classifies the span only if it has no kind yet. Safe on
// nil.
func (s *Span) SetKindOnce(k string) *Span {
	if s != nil && s.Kind == "" {
		s.Kind = k
	}
	return s
}

// Attr appends one annotation. Safe on nil.
func (s *Span) Attr(key, val string) *Span {
	if s != nil {
		s.Attrs = append(s.Attrs, Attr{key, val})
	}
	return s
}

// AttrInt appends one integer annotation. Safe on nil, and a nil span
// pays for no formatting.
func (s *Span) AttrInt(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	return s.Attr(key, strconv.FormatInt(v, 10))
}

// End closes the span at virtual time t; later calls are no-ops. Safe
// on nil.
func (s *Span) End(t sim.Time) {
	if s == nil || s.Ended {
		return
	}
	s.Finish = t
	s.Ended = true
}

// Duration returns Finish-Start for an ended span (0 otherwise).
func (s *Span) Duration() sim.Duration {
	if s == nil || !s.Ended {
		return 0
	}
	return s.Finish - s.Start
}

// Spans returns every recorded span in begin order (deterministic: the
// engine dispatches events serially).
func (r *Registry) Spans() []*Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// OpenSpans counts spans that were begun but never ended — after a
// clean run it must be zero.
func (r *Registry) OpenSpans() int {
	if r == nil {
		return 0
	}
	n := 0
	for _, s := range r.spans {
		if !s.Ended {
			n++
		}
	}
	return n
}
