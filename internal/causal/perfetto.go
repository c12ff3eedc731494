package causal

import (
	"fmt"
	"io"

	"repro/internal/metrics"
)

// Flows renders the happens-before graph as Perfetto flow arrows:
// one message flow per matched send→recv pair (send post to receive
// completion) and one flow per cross edge on the critical path. Flow
// ids are assigned deterministically in graph order.
func (r *Report) Flows() []metrics.Flow {
	g := r.graph
	if g == nil {
		return nil
	}
	var flows []metrics.Flow
	id := uint64(1)
	actor := func(rank int32) string { return fmt.Sprintf("rank%d", rank) }

	for i := range g.Messages {
		m := &g.Messages[i]
		if m.SendPost < 0 || m.RecvDone < 0 {
			continue
		}
		flows = append(flows, metrics.Flow{
			ID:        id,
			Name:      fmt.Sprintf("msg seq=%d tag=%d (%s)", m.Seq, m.Tag, ProtoName(m.Proto)),
			Cat:       "message",
			FromActor: actor(m.Src),
			FromTS:    int64(g.Events[m.SendPost].T),
			ToActor:   actor(m.Dst),
			ToTS:      int64(g.Events[m.RecvDone].T),
		})
		id++
	}

	for _, s := range r.steps {
		if !s.Cross || s.Event < 0 {
			continue
		}
		e := &g.Events[s.Event]
		from := s.Rank
		if p := g.CrossPred[s.Event]; p >= 0 {
			from = g.Events[p].Rank
		}
		flows = append(flows, metrics.Flow{
			ID:        id,
			Name:      fmt.Sprintf("critical:%s", s.Cat),
			Cat:       "critical-path",
			FromActor: actor(from),
			FromTS:    int64(s.Start),
			ToActor:   actor(e.Rank),
			ToTS:      int64(s.End),
		})
		id++
	}
	return flows
}

// WriteTrace writes the Chrome/Perfetto trace for reg overlaid with
// this report's flow arrows.
func (r *Report) WriteTrace(w io.Writer, reg *metrics.Registry) error {
	return reg.WriteChromeTrace(w, r.Flows())
}
