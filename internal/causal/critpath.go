package causal

import (
	"sort"

	"repro/internal/sim"
)

// Category names every nanosecond on the critical path lands in. The
// set is closed so report shares always partition total sim time.
const (
	CatCompute  = "compute"        // application work between MPI events
	CatEager    = "eager-copy"     // eager/control packet assembly + wire
	CatRndvRTT  = "rendezvous-rtt" // handshake round trips + RDMA bulk
	CatDMA      = "dma-coi"        // PCIe DMA staging / COI transfers
	CatCmd      = "cmd-channel"    // DCFA command-channel calls
	CatWait     = "wait"           // blocked in Wait with no attributable cause
	CatRecovery = "recovery"       // fault recovery: resets, replays, fallbacks
)

// Categories lists every category in report order.
var Categories = []string{CatCompute, CatEager, CatRndvRTT, CatDMA, CatCmd, CatWait, CatRecovery}

// PathStep is one segment of the critical path: the interval
// (Start, End] spent on rank Rank attributed to Cat, terminated by the
// event at index Event (or -1 for the synthetic head/tail segments).
type PathStep struct {
	Start, End sim.Time
	Rank       int32
	Cat        string
	Event      int
	// Cross marks steps that followed a cross-rank/cross-layer edge.
	Cross bool
}

// CriticalPath walks the happens-before graph backward from the
// latest event, always following the binding (latest-finishing)
// predecessor, and returns the path as forward-ordered steps whose
// intervals exactly partition [0, g.End].
func (g *Graph) CriticalPath() []PathStep {
	last := -1
	for i := range g.Events {
		if g.Events[i].Rank < 0 {
			continue
		}
		if last < 0 || g.Events[i].T > g.Events[last].T || (g.Events[i].T == g.Events[last].T && i > last) {
			last = i
		}
	}
	if last < 0 {
		if g.End > 0 {
			return []PathStep{{Start: 0, End: g.End, Rank: -1, Cat: CatCompute, Event: -1}}
		}
		return nil
	}

	var rev []PathStep
	cur := last
	var buf []int
	for {
		e := &g.Events[cur]
		// Choose the binding predecessor: the one that finished last.
		buf = g.preds(cur, buf[:0])
		best, bestT := -1, sim.Time(-1)
		for _, p := range buf {
			if g.Events[p].T > bestT || (g.Events[p].T == bestT && p > best) {
				best, bestT = p, g.Events[p].T
			}
		}
		if best < 0 {
			// Head of the path: attribute [0, e.T] to startup compute.
			if e.T > 0 {
				rev = append(rev, PathStep{Start: 0, End: e.T, Rank: e.Rank, Cat: CatCompute, Event: cur})
			}
			break
		}
		cross := best != g.crossProgramPred(cur) && (best == g.CrossPred[cur] || isIn(g.CollPreds[cur], best))
		rev = append(rev, g.steps(best, cur, cross)...)
		cur = best
	}

	// Reverse into forward order and close the tail out to g.End.
	steps := make([]PathStep, 0, len(rev)+1)
	for i := len(rev) - 1; i >= 0; i-- {
		steps = append(steps, rev[i])
	}
	if lastT := g.Events[last].T; g.End > lastT {
		steps = append(steps, PathStep{Start: lastT, End: g.End, Rank: g.Events[last].Rank, Cat: CatCompute, Event: -1})
	}
	return steps
}

// crossProgramPred returns the program-order predecessor index of i,
// or -1.
func (g *Graph) crossProgramPred(i int) int {
	e := &g.Events[i]
	if e.Rank >= 0 && g.pos[i] > 0 {
		return g.Timelines[e.Rank][g.pos[i]-1]
	}
	return -1
}

func isIn(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// steps attributes the interval between predecessor p and event i,
// possibly splitting it when the terminating event carries its own
// duration (DMA sync, command-channel call).
func (g *Graph) steps(p, i int, cross bool) []PathStep {
	e := &g.Events[i]
	start, end := g.Events[p].T, e.T
	if end <= start {
		return nil
	}
	cat := g.categorize(i, cross)
	if d := sim.Duration(e.Aux); (e.Kind == EvDMASync || e.Kind == EvCmdDone || e.Kind == EvDMADone) && d > 0 && end-sim.Time(d) > start {
		// The event records its own duration: only that trailing part
		// is staging/command time; the remainder was rank progress.
		return []PathStep{
			{Start: end - sim.Time(d), End: end, Rank: e.Rank, Cat: cat, Event: i, Cross: cross},
			{Start: start, End: end - sim.Time(d), Rank: e.Rank, Cat: CatCompute, Event: i},
		}
	}
	return []PathStep{{Start: start, End: end, Rank: e.Rank, Cat: cat, Event: i, Cross: cross}}
}

// categorize maps the event terminating a path segment to the
// category the segment's time is attributed to.
func (g *Graph) categorize(i int, cross bool) string {
	e := &g.Events[i]
	switch e.Kind {
	case EvQPReset, EvReplay, EvReplayDrop, EvFallback:
		return CatRecovery
	case EvDMASync, EvDMADone:
		return CatDMA
	case EvCmdDone:
		return CatCmd
	case EvPktRecv:
		if cross {
			// Wire time of the packet that unblocked us.
			if e.Pkt == PktEager || e.Pkt == PktCredit {
				return CatEager
			}
			return CatRndvRTT
		}
		if e.Wait {
			return CatWait
		}
		return CatCompute
	case EvCQE:
		if cross {
			// RDMA bulk transfer flight time.
			return CatRndvRTT
		}
		if e.Wait {
			return CatWait
		}
		return CatCompute
	case EvPktSend:
		if e.Bytes > 0 {
			return CatEager
		}
		if e.Wait {
			return CatWait
		}
		return CatCompute
	case EvSendDone, EvRecvDone:
		switch e.Proto {
		case ProtoEager:
			return CatEager
		case ProtoSenderRzv, ProtoRecvRzv, ProtoSimulRzv:
			return CatRndvRTT
		default:
			return CatCompute
		}
	case EvWaitEnd, EvCollExit:
		return CatWait
	default:
		if e.Wait {
			return CatWait
		}
		return CatCompute
	}
}

// Breakdown sums critical-path step durations per category. The values
// partition the run: they always sum to g.End.
func Breakdown(steps []PathStep) map[string]sim.Duration {
	out := make(map[string]sim.Duration, len(Categories))
	for _, c := range Categories {
		out[c] = 0
	}
	for _, s := range steps {
		out[s.Cat] += sim.Duration(s.End - s.Start)
	}
	return out
}

// SortedCategories returns the breakdown as (category, duration) pairs
// ordered by descending duration, ties broken by name.
func SortedCategories(b map[string]sim.Duration) []struct {
	Cat string
	Dur sim.Duration
} {
	out := make([]struct {
		Cat string
		Dur sim.Duration
	}, 0, len(b))
	for _, c := range Categories {
		out = append(out, struct {
			Cat string
			Dur sim.Duration
		}{c, b[c]})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Dur != out[j].Dur {
			return out[i].Dur > out[j].Dur
		}
		return out[i].Cat < out[j].Cat
	})
	return out
}
