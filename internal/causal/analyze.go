package causal

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Pattern names for the classic MPI inefficiency patterns.
const (
	PatLateSender       = "late-sender"
	PatLateReceiver     = "late-receiver"
	PatWaitAtCollective = "wait-at-collective"
	PatMispredictStall  = "rendezvous-mispredict-stall"
	PatAnySerialization = "any-source-serialization"
)

// Instance is one concrete occurrence of an inefficiency pattern.
type Instance struct {
	// Where identifies the involved endpoints, e.g. "0→1 seq=3".
	Where string       `json:"where"`
	At    sim.Time     `json:"at"`
	Cost  sim.Duration `json:"cost"`
}

// Pattern aggregates all instances of one inefficiency class.
type Pattern struct {
	Name  string       `json:"name"`
	Count int          `json:"count"`
	Cost  sim.Duration `json:"cost"`
	// Worst holds the costliest instances, descending (capped).
	Worst []Instance `json:"worst,omitempty"`
}

// RankLoad summarizes one rank's blocking profile.
type RankLoad struct {
	Rank     int32        `json:"rank"`
	WaitTime sim.Duration `json:"wait_ns"`
	CollWait sim.Duration `json:"coll_wait_ns"`
	Events   int          `json:"events"`
}

// maxWorst caps the per-pattern instance list in reports.
const maxWorst = 5

// Analyze runs every pattern detector over the graph and returns the
// detected patterns (cost-descending) and the per-rank load summary.
func (g *Graph) Analyze() ([]Pattern, []RankLoad) {
	pats := []Pattern{
		g.detectLateSender(),
		g.detectLateReceiver(),
		g.detectWaitAtCollective(),
		g.detectMispredictStall(),
		g.detectAnySerialization(),
	}
	sort.SliceStable(pats, func(i, j int) bool {
		if pats[i].Cost != pats[j].Cost {
			return pats[i].Cost > pats[j].Cost
		}
		return pats[i].Name < pats[j].Name
	})
	return pats, g.loadSummary()
}

// finish trims and orders a pattern's instance list.
func finish(p Pattern) Pattern {
	sort.SliceStable(p.Worst, func(i, j int) bool {
		if p.Worst[i].Cost != p.Worst[j].Cost {
			return p.Worst[i].Cost > p.Worst[j].Cost
		}
		return p.Worst[i].At < p.Worst[j].At
	})
	if len(p.Worst) > maxWorst {
		p.Worst = p.Worst[:maxWorst]
	}
	return p
}

// detectLateSender finds receives that were bound (buffer ready,
// waiting) before the matching send was even posted: the receiver
// idled for sendPost - recvBind.
func (g *Graph) detectLateSender() Pattern {
	p := Pattern{Name: PatLateSender}
	for i := range g.Messages {
		m := &g.Messages[i]
		if m.SendPost < 0 || m.RecvBind < 0 {
			continue
		}
		gap := g.Events[m.SendPost].T - g.Events[m.RecvBind].T
		if gap <= 0 {
			continue
		}
		p.Count++
		p.Cost += sim.Duration(gap)
		p.Worst = append(p.Worst, Instance{
			Where: fmt.Sprintf("%d→%d seq=%d tag=%d", m.Src, m.Dst, m.Seq, m.Tag),
			At:    g.Events[m.RecvBind].T,
			Cost:  sim.Duration(gap),
		})
	}
	return finish(p)
}

// detectLateReceiver finds rendezvous sends whose receive was bound
// only after the send was posted: the sender's buffer sat pinned (and
// for sender-first, the RTS sat unanswered) for recvBind - sendPost.
// Eager sends are fire-and-forget and never block on the receiver, so
// they are excluded — the documented false-negative boundary.
func (g *Graph) detectLateReceiver() Pattern {
	p := Pattern{Name: PatLateReceiver}
	for i := range g.Messages {
		m := &g.Messages[i]
		if m.SendPost < 0 || m.RecvBind < 0 {
			continue
		}
		switch m.Proto {
		case ProtoSenderRzv, ProtoRecvRzv, ProtoSimulRzv:
		default:
			continue
		}
		gap := g.Events[m.RecvBind].T - g.Events[m.SendPost].T
		if gap <= 0 {
			continue
		}
		p.Count++
		p.Cost += sim.Duration(gap)
		p.Worst = append(p.Worst, Instance{
			Where: fmt.Sprintf("%d→%d seq=%d tag=%d", m.Src, m.Dst, m.Seq, m.Tag),
			At:    g.Events[m.SendPost].T,
			Cost:  sim.Duration(gap),
		})
	}
	return finish(p)
}

// detectWaitAtCollective charges each rank of a collective for the
// time between its own entry and the last rank's entry: everyone
// waits for the straggler.
func (g *Graph) detectWaitAtCollective() Pattern {
	p := Pattern{Name: PatWaitAtCollective}
	for _, es := range g.Colls {
		if len(es) < 2 {
			continue
		}
		var latest sim.Time
		var straggler int32
		for _, i := range es {
			if g.Events[i].T >= latest {
				latest = g.Events[i].T
				straggler = g.Events[i].Rank
			}
		}
		var cost sim.Duration
		for _, i := range es {
			cost += sim.Duration(latest - g.Events[i].T)
		}
		if cost <= 0 {
			continue
		}
		p.Count++
		p.Cost += cost
		p.Worst = append(p.Worst, Instance{
			Where: fmt.Sprintf("%s #%d straggler=rank%d", CollName(g.Events[es[0]].Tag), g.Events[es[0]].Aux, straggler),
			At:    latest,
			Cost:  cost,
		})
	}
	return finish(p)
}

// detectMispredictStall charges each protocol misprediction for the
// wasted handshake: the time between the (ultimately dropped) RTR
// leaving the receiver and the misprediction being recognized.
func (g *Graph) detectMispredictStall() Pattern {
	p := Pattern{Name: PatMispredictStall}
	type key struct {
		src, dst int32
		seq      uint64
	}
	rtr := make(map[key]sim.Time)
	for i := range g.Events {
		e := &g.Events[i]
		if e.Kind == EvPktSend && e.Pkt == PktRTR {
			rtr[key{e.Rank, e.Peer, e.Seq}] = e.T
		}
	}
	for i := range g.Events {
		e := &g.Events[i]
		if e.Kind != EvMispredict {
			continue
		}
		// Sender-side drop: the RTR came from the peer. Receiver-side
		// (eager beat our RTR): the RTR was our own.
		t, ok := rtr[key{e.Peer, e.Rank, e.Seq}]
		if !ok {
			t, ok = rtr[key{e.Rank, e.Peer, e.Seq}]
		}
		cost := sim.Duration(0)
		if ok && e.T > t {
			cost = sim.Duration(e.T - t)
		}
		p.Count++
		p.Cost += cost
		p.Worst = append(p.Worst, Instance{
			Where: fmt.Sprintf("rank%d peer=%d seq=%d", e.Rank, e.Peer, e.Seq),
			At:    e.T,
			Cost:  cost,
		})
	}
	return finish(p)
}

// detectAnySerialization charges each receive that was deferred behind
// an active ANY_SOURCE wildcard for the time until it finally got a
// sequence id (bound or took the lock itself).
func (g *Graph) detectAnySerialization() Pattern {
	p := Pattern{Name: PatAnySerialization}
	type key struct {
		rank int32
		cid  uint64
	}
	deferred := make(map[key]sim.Time)
	for i := range g.Events {
		e := &g.Events[i]
		switch e.Kind {
		case EvDefer:
			k := key{e.Rank, e.CID}
			if _, ok := deferred[k]; !ok {
				deferred[k] = e.T
			}
		case EvRecvBind, EvAnyLock:
			k := key{e.Rank, e.CID}
			if t0, ok := deferred[k]; ok {
				delete(deferred, k)
				cost := sim.Duration(e.T - t0)
				if cost <= 0 {
					continue
				}
				p.Count++
				p.Cost += cost
				p.Worst = append(p.Worst, Instance{
					Where: fmt.Sprintf("rank%d req=%d", e.Rank, e.CID),
					At:    t0,
					Cost:  cost,
				})
			}
		default:
			// Only a defer opens a wildcard-serialization window and only
			// a bind or lock closes it; all other kinds are irrelevant to
			// this pattern.
		}
	}
	return finish(p)
}

// loadSummary tallies per-rank blocking time from Wait regions and
// collective straggling.
func (g *Graph) loadSummary() []RankLoad {
	loads := make(map[int32]*RankLoad)
	for _, rank := range g.Ranks {
		loads[rank] = &RankLoad{Rank: rank, Events: len(g.Timelines[rank])}
	}
	open := make(map[int32]sim.Time)
	for i := range g.Events {
		e := &g.Events[i]
		switch e.Kind {
		case EvWaitStart:
			if _, ok := open[e.Rank]; !ok {
				open[e.Rank] = e.T
			}
		case EvWaitEnd:
			if t0, ok := open[e.Rank]; ok {
				delete(open, e.Rank)
				if l := loads[e.Rank]; l != nil {
					l.WaitTime += sim.Duration(e.T - t0)
				}
			}
		default:
			// Wait regions are bracketed solely by WaitStart/WaitEnd;
			// collective straggling is tallied in its own pass below.
		}
	}
	// Collective straggling per rank, in collective order.
	for _, es := range g.Colls {
		var latest sim.Time
		for _, i := range es {
			if g.Events[i].T > latest {
				latest = g.Events[i].T
			}
		}
		for _, i := range es {
			if l := loads[g.Events[i].Rank]; l != nil {
				l.CollWait += sim.Duration(latest - g.Events[i].T)
			}
		}
	}
	out := make([]RankLoad, 0, len(loads))
	for _, rank := range g.Ranks {
		out = append(out, *loads[rank])
	}
	return out
}

// Collective op codes carried in EvCollEnter/EvCollExit Tag. New codes
// append at the end: recorded traces identify ops by value.
const (
	CollBarrier int32 = iota + 1
	CollAllreduce
	CollAllgather
	CollAlltoall
	CollBcast
)

// CollName spells collective op code op: in the coll.<op> counters and
// spans, and in this package's reports.
func CollName(op int32) string {
	switch op {
	case CollBarrier:
		return "barrier"
	case CollAllreduce:
		return "allreduce"
	case CollAllgather:
		return "allgather"
	case CollAlltoall:
		return "alltoall"
	case CollBcast:
		return "bcast"
	default:
		return "collective"
	}
}
