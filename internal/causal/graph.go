package causal

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/sim"
)

// Graph is the cross-rank happens-before relation over recorded
// events. Nodes are event indices into Events; edges are of two kinds:
// the implicit program order within each rank's timeline, and explicit
// cross edges (packet delivery, WR completion, collective fan-in).
type Graph struct {
	// Events is the full event stream in emission order.
	Events []Event
	// End is the simulated end of the run (>= the last event time).
	End sim.Time

	// Timelines[rank] lists event indices in program order. Node-layer
	// events (Rank == -1) are excluded.
	Timelines map[int32][]int
	// pos[i] is the position of event i within its rank timeline.
	pos []int

	// CrossPred[i] is the index of the explicit cross-edge predecessor
	// of event i, or -1. At most one cross edge terminates at any event
	// except collective exits, which use CollPreds.
	CrossPred []int
	// CollPreds[i] lists the fan-in predecessors (all ranks' CollEnter
	// events) for a CollExit event i.
	CollPreds map[int][]int
	// Colls lists each collective call's CollEnter events, one per
	// rank that entered it, by ascending call number.
	Colls [][]int

	// Messages are matched message lifecycles keyed deterministically.
	Messages []Message

	// Ranks is the sorted set of ranks seen.
	Ranks []int32
}

// Message pairs the send-side and receive-side lifecycle of one
// point-to-point message (directed pair src→dst, sequence id seq).
type Message struct {
	Src, Dst int32
	Seq      uint64
	Tag      int32
	Bytes    int32
	Proto    uint8

	// Event indices, -1 when the corresponding event was not observed.
	SendPost, SendDone int
	RecvBind, RecvDone int
}

// Issue is one graph-consistency problem.
type Issue struct {
	Kind string `json:"kind"`
	Msg  string `json:"msg"`
}

// Build constructs the happens-before graph from a recorded event
// stream. end is the engine's final virtual time.
func Build(events []Event, end sim.Time) *Graph {
	g := &Graph{
		Events:    events,
		End:       end,
		Timelines: make(map[int32][]int),
		pos:       make([]int, len(events)),
		CrossPred: make([]int, len(events)),
		CollPreds: make(map[int][]int),
	}
	for i := range g.CrossPred {
		g.CrossPred[i] = -1
	}

	// Program order: per-rank timelines in emission order.
	for i := range events {
		e := &events[i]
		if e.Rank < 0 {
			continue
		}
		tl := g.Timelines[e.Rank]
		if len(tl) == 0 {
			g.Ranks = append(g.Ranks, e.Rank)
		}
		g.pos[i] = len(tl)
		g.Timelines[e.Rank] = append(tl, i)
	}
	sort.Slice(g.Ranks, func(a, b int) bool { return g.Ranks[a] < g.Ranks[b] })

	type pairKey struct {
		src, dst int32
		n        uint64
	}

	// Cross edges: packet delivery (src,dst,psn), WR completion
	// (rank,wrid), and collective fan-in (collSeq).
	pktSend := make(map[pairKey]int)
	wrPost := make(map[pairKey]int)
	collEnter := make(map[uint64][]int)
	var collSeqs []uint64
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case EvPktSend:
			pktSend[pairKey{e.Rank, e.Peer, e.PSN}] = i
		case EvPktRecv:
			if s, ok := pktSend[pairKey{e.Peer, e.Rank, e.PSN}]; ok {
				g.CrossPred[i] = s
				delete(pktSend, pairKey{e.Peer, e.Rank, e.PSN})
			}
		case EvReplayDrop:
			// A deduped replay still consumed the wire: bind it to the
			// original send if one is still unmatched (the replayed
			// packet re-uses the original PSN).
			if s, ok := pktSend[pairKey{e.Peer, e.Rank, e.PSN}]; ok {
				g.CrossPred[i] = s
			}
		case EvWRPost:
			wrPost[pairKey{e.Rank, 0, e.Aux}] = i
		case EvCQE:
			if s, ok := wrPost[pairKey{e.Rank, 0, e.Aux}]; ok {
				g.CrossPred[i] = s
				delete(wrPost, pairKey{e.Rank, 0, e.Aux})
			}
		case EvCollEnter:
			if _, ok := collEnter[e.Aux]; !ok {
				collSeqs = append(collSeqs, e.Aux)
			}
			collEnter[e.Aux] = append(collEnter[e.Aux], i)
		case EvCollExit:
			// Defer until all enters are collected.
		default:
			// Every other event kind orders only within its own rank
			// timeline; cross edges exist solely for the wire, WR
			// completion, and collective fan-in pairs handled above.
		}
	}
	for i := range events {
		e := &events[i]
		if e.Kind == EvCollExit {
			g.CollPreds[i] = collEnter[e.Aux]
		}
	}
	slices.Sort(collSeqs)
	for _, s := range collSeqs {
		g.Colls = append(g.Colls, collEnter[s])
	}

	g.buildMessages()
	return g
}

// buildMessages pairs send-side and receive-side lifecycles.
func (g *Graph) buildMessages() {
	type msgKey struct {
		src, dst int32
		seq      uint64
	}
	idx := make(map[msgKey]int)
	get := func(k msgKey) *Message {
		if j, ok := idx[k]; ok {
			return &g.Messages[j]
		}
		idx[k] = len(g.Messages)
		g.Messages = append(g.Messages, Message{
			Src: k.src, Dst: k.dst, Seq: k.seq,
			SendPost: -1, SendDone: -1, RecvBind: -1, RecvDone: -1,
		})
		return &g.Messages[len(g.Messages)-1]
	}
	for i := range g.Events {
		e := &g.Events[i]
		switch e.Kind {
		case EvSendPost:
			if e.Peer == e.Rank {
				continue // self messages have no cross-rank lifecycle
			}
			m := get(msgKey{e.Rank, e.Peer, e.Seq})
			m.SendPost, m.Tag, m.Bytes = i, e.Tag, e.Bytes
		case EvSendDone:
			if e.Peer == e.Rank || e.Proto == ProtoSelf {
				continue
			}
			m := get(msgKey{e.Rank, e.Peer, e.Seq})
			m.SendDone = i
			if m.Proto == ProtoUnknown {
				m.Proto = e.Proto
			}
		case EvRecvBind:
			m := get(msgKey{e.Peer, e.Rank, e.Seq})
			m.RecvBind = i
		case EvRecvDone:
			if e.Peer == e.Rank || e.Proto == ProtoSelf {
				continue
			}
			m := get(msgKey{e.Peer, e.Rank, e.Seq})
			m.RecvDone = i
			m.Proto = e.Proto
		default:
			// Only the four post/done endpoints define a message's
			// lifecycle; waits, packets, and collectives never key a
			// message record.
		}
	}
	sort.Slice(g.Messages, func(a, b int) bool {
		x, y := &g.Messages[a], &g.Messages[b]
		if x.Src != y.Src {
			return x.Src < y.Src
		}
		if x.Dst != y.Dst {
			return x.Dst < y.Dst
		}
		return x.Seq < y.Seq
	})
}

// preds appends all happens-before predecessors of event i to buf.
func (g *Graph) preds(i int, buf []int) []int {
	e := &g.Events[i]
	if e.Rank >= 0 && g.pos[i] > 0 {
		buf = append(buf, g.Timelines[e.Rank][g.pos[i]-1])
	}
	if p := g.CrossPred[i]; p >= 0 {
		buf = append(buf, p)
	}
	buf = append(buf, g.CollPreds[i]...)
	return buf
}

// Check validates graph invariants and returns the issues found:
// posted sends/recvs with no completion, packets consumed with no
// matching send, backward cross edges, and cycles in happens-before.
func (g *Graph) Check() []Issue {
	var issues []Issue
	for i := range g.Messages {
		m := &g.Messages[i]
		if m.SendPost >= 0 && m.SendDone < 0 {
			issues = append(issues, Issue{"unmatched-send", fmt.Sprintf(
				"send %d→%d seq=%d posted but never completed", m.Src, m.Dst, m.Seq)})
		}
		if m.RecvBind >= 0 && m.RecvDone < 0 {
			issues = append(issues, Issue{"unmatched-recv", fmt.Sprintf(
				"recv %d←%d seq=%d bound but never completed", m.Dst, m.Src, m.Seq)})
		}
	}
	for i := range g.Events {
		e := &g.Events[i]
		if e.Kind == EvPktRecv && g.CrossPred[i] < 0 {
			issues = append(issues, Issue{"orphan-packet", fmt.Sprintf(
				"rank %d consumed pkt kind=%d psn=%d from %d with no recorded send",
				e.Rank, e.Pkt, e.PSN, e.Peer)})
		}
		if p := g.CrossPred[i]; p >= 0 && g.Events[p].T > e.T {
			issues = append(issues, Issue{"backward-edge", fmt.Sprintf(
				"event %d (%s @%d) precedes its effect %d (%s @%d)",
				p, g.Events[p].Kind, g.Events[p].T, i, e.Kind, e.T)})
		}
	}
	if cyc := g.findCycle(); cyc != "" {
		issues = append(issues, Issue{"cycle", cyc})
	}
	return issues
}

// findCycle runs Kahn's algorithm over program order + cross edges and
// reports a non-empty description if any nodes remain unprocessed.
func (g *Graph) findCycle() string {
	n := len(g.Events)
	indeg := make([]int, n)
	var buf []int
	for i := 0; i < n; i++ {
		buf = g.preds(i, buf[:0])
		indeg[i] = len(buf)
	}
	// succ lists are the reverse of preds.
	succ := make([][]int, n)
	for i := 0; i < n; i++ {
		buf = g.preds(i, buf[:0])
		for _, p := range buf {
			succ[p] = append(succ[p], i)
		}
	}
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	done := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		done++
		for _, s := range succ[i] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if done != n {
		return fmt.Sprintf("happens-before contains a cycle: %d of %d events unreachable by topological order", n-done, n)
	}
	return ""
}
