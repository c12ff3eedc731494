package core

import (
	"strconv"

	"repro/internal/causal"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is core's one reporting point: the only code that knows four
// consumers watch the protocol — Rank.Stats, always, and the metrics
// registry, the causal recorder and the text trace ring when Config
// installs them. Protocol code says what happened once: step for a point
// fact, the methods further down for a request, a packet, a work request,
// a wait, a collective call. DESIGN.md §8c prints the table.

// Packet kinds on the eager rings and work-request kinds are the wire
// codes the causal profiler classifies edges by, so they are declared
// from there.
const (
	pktEager  = causal.PktEager
	pktRTS    = causal.PktRTS    // sender-first rendezvous: ready-to-send
	pktRTR    = causal.PktRTR    // receiver-first rendezvous: ready-to-receive
	pktDone   = causal.PktDone   // sender-first rendezvous read finished: closes the send
	pktCredit = causal.PktCredit // explicit eager-ring credit return
	pktNack   = causal.PktNack   // rendezvous aborted: closes the send (receiver issued MPI error)
	// The receiver-first protocol needs its own completion kinds: a rank
	// can simultaneously hold a send to and a receive from the same peer
	// under the same sequence id (the spaces are independent per
	// direction), so a bare DONE/NACK would be ambiguous about which one
	// it closes.
	pktDoneW = causal.PktDoneW // receiver-first rendezvous write finished: closes the receive
	pktNackW = causal.PktNackW // receiver-first rendezvous aborted: closes the receive

	wrEager     = wrKind(causal.WREager)
	wrCtrl      = wrKind(causal.WRCtrl)
	wrRndvWrite = wrKind(causal.WRRndvWrite)
	wrRndvRead  = wrKind(causal.WRRndvRead)
)

// stepKind names one protocol step: §IV-B3's, and the recovery around
// them.
type stepKind uint8

const (
	stepSendPost stepKind = iota
	stepEagerSend
	stepRTSSend
	stepRecvFirst
	stepRTRSend
	stepRDMARead
	stepRDMAWrite
	stepSimulDrop
	stepMispredictRTR
	stepMispredictEager
	stepOffloadSync
	stepOffloadAbort
	stepOffloadFull
	stepOffloadedPack
	stepUnexpected
	stepSelfMsg
	stepCredit
	stepAnyLock
	stepAnyDefer
	stepAnyMatch
	stepQPReset
	stepReplay
	stepReplayDrop
	numSteps
)

// stepRow is what each consumer takes of one step; an empty cell means
// the consumer deliberately does not take it.
type stepRow struct {
	stat    func(*Stats) *int64 // the Rank.Stats field that counts the step
	counter string              // the per-rank registry counter that does
	addsN   bool                // …summing the step's bytes instead
	ev      causal.Kind         // its causal event, Peer = peer…
	put     layout              // …and this of (id, n); nil: the reporting method fills it
	trace   string              // its ring kind; the line reads "peer=<peer> seq=<id> n=<n>"
}

// layout says which causal.Event fields a step's id and n go to.
type layout func(e *causal.Event, id uint64, n int)

func peerOnly(*causal.Event, uint64, int)     {}
func idSeq(e *causal.Event, id uint64, _ int) { e.Seq = id }
func idAux(e *causal.Event, id uint64, _ int) { e.Aux = id }
func idPSN(e *causal.Event, id uint64, _ int) { e.PSN = id }
func nBytes(e *causal.Event, _ uint64, n int) { e.Bytes = int32(n) }

// idCID is for steps about a request, not a pair.
func idCID(e *causal.Event, id uint64, _ int) { e.Peer, e.CID = -1, id }

// steps has one row per step kind. Why cells are empty, once for all
// rows: a Stats field without a counter predates the registry, and a new
// counter would move every -metrics export; a step that puts a packet or
// a work request on the wire is in the causal stream as that pkt-send or
// wr-post, not again under its own kind; the ring shows protocol choices,
// so what every message does (send-post, a queued arrival) has no line.
var steps = [numSteps]stepRow{
	// A send got its pair and its sequence id; Stats.BytesSent sums n.
	stepSendPost: {stat: func(s *Stats) *int64 { return &s.MsgsSent }, ev: causal.EvSendPost},
	// The eager packet went into the peer's ring, at once or when
	// progress found credit (a send that dies queued is not one).
	stepEagerSend: {stat: func(s *Stats) *int64 { return &s.EagerSends }, trace: "eager-send"},
	// A rendezvous send went one of its two ways: it announced itself,
	// or answered the RTR that was already here.
	stepRTSSend:   {stat: func(s *Stats) *int64 { return &s.RndvSends }, trace: "rts-send"},
	stepRecvFirst: {stat: func(s *Stats) *int64 { return &s.RndvSends }, trace: "recv-first"},
	stepRTRSend:   {trace: "rtr-send"},
	stepRDMARead:  {ev: causal.EvWRPost, trace: "rdma-read"},
	stepRDMAWrite: {stat: func(s *Stats) *int64 { return &s.RndvWrites }, ev: causal.EvWRPost, trace: "rdma-write"},
	// RTS and RTR crossed; counted at resolution, as every class is.
	stepSimulDrop: {trace: "simultaneous-rtr-drop"},
	// §IV-B3's mis-prediction from each end: the eager sender drops the
	// RTR; the receiver parked behind its RTR takes the eager packet.
	stepMispredictRTR:   {counter: "proto.mispredicts", ev: causal.EvMispredict, put: idSeq, trace: "mispredict-rtr-drop"},
	stepMispredictEager: {counter: "proto.mispredicts", ev: causal.EvMispredict, put: idSeq, trace: "mispredict-eager"},
	// The offload send buffer: staged; staging aborted by the DMA engine;
	// arena full. A full arena is not in the causal stream: there
	// offload-fallback is DMA-abort recovery, and simprof counts it so.
	stepOffloadSync:   {stat: func(s *Stats) *int64 { return &s.OffloadedSends }, counter: "offload.staged-bytes", addsN: true, ev: causal.EvDMASync, trace: "offload-sync"},
	stepOffloadAbort:  {counter: "offload.fallbacks", ev: causal.EvFallback, put: nBytes, trace: "offload-abort"},
	stepOffloadFull:   {counter: "offload.fallbacks", trace: "offload-full"},
	stepOffloadedPack: {stat: func(s *Stats) *int64 { return &s.OffloadedPacks }},
	stepUnexpected:    {stat: func(s *Stats) *int64 { return &s.Unexpected }},
	stepSelfMsg:       {stat: func(s *Stats) *int64 { return &s.SelfMsgs }},
	stepCredit:        {stat: func(s *Stats) *int64 { return &s.CreditPackets }, trace: "credit"},
	stepAnyLock:       {counter: "any-source.locks", ev: causal.EvAnyLock, put: idCID},
	stepAnyDefer:      {ev: causal.EvDefer, put: idCID},
	// An arriving packet released the lock (one found waiting does not).
	stepAnyMatch: {trace: "any-source-match"},
	// Fault recovery: id is the work-request id and n the attempt for a
	// replay, the packet's psn and the psn expected for a dropped one.
	stepQPReset:    {stat: func(s *Stats) *int64 { return &s.QPResets }, counter: "faults.qp-resets", ev: causal.EvQPReset, put: peerOnly, trace: "qp-reset"},
	stepReplay:     {stat: func(s *Stats) *int64 { return &s.Retries }, counter: "faults.retries", ev: causal.EvReplay, put: idAux, trace: "wr-replay"},
	stepReplayDrop: {stat: func(s *Stats) *int64 { return &s.ReplaysDeduped }, counter: "faults.replays-deduped", ev: causal.EvReplayDrop, put: idPSN, trace: "replay-drop"},
}

// The protocol classes and collective op codes are causal's; protocol
// code names them through these, so that it imports no consumer.
const (
	protoEager     = causal.ProtoEager
	protoSenderRzv = causal.ProtoSenderRzv
	protoRecvRzv   = causal.ProtoRecvRzv
	protoSimulRzv  = causal.ProtoSimulRzv
	protoSelf      = causal.ProtoSelf

	collBarrier   = causal.CollBarrier
	collAllreduce = causal.CollAllreduce
	collAllgather = causal.CollAllgather
	collAlltoall  = causal.CollAlltoall
	collBcast     = causal.CollBcast
)

// reporter is a rank's handle on the three optional consumers. With
// none installed every report stops at one test of on.
type reporter struct {
	on    bool
	actor string // "rank<id>": the rank's track in the registry and the ring
	reg   *metrics.Registry
	rec   *causal.Recorder
	ring  *trace.Recorder

	counters [numSteps]*metrics.Counter
	proto    [protoSelf + 1]*metrics.Counter // proto.<causal.ProtoName>

	sendLat, recvLat, matchLat, rndvRTT *metrics.Histogram

	// cid numbers requests and collSeq collective calls, rank-locally.
	// SPMD programs make those calls in the same order on every rank,
	// which lets the graph fan entries into exits. waitDepth > 0 marks
	// events emitted while blocked in Wait (progress runs in the
	// waiter's context).
	cid, collSeq uint64
	waitDepth    int
}

func newReporter(reg *metrics.Registry, rec *causal.Recorder, ring *trace.Recorder, id int) reporter {
	rep := reporter{reg: reg, rec: rec, ring: ring, on: reg != nil || rec != nil || ring != nil}
	if !rep.on {
		return rep
	}
	rep.actor = "rank" + strconv.Itoa(id)
	// A nil registry hands out nil handles, whose methods do nothing.
	for k := range steps {
		if name := steps[k].counter; name != "" {
			rep.counters[k] = reg.Counter(rep.actor, name)
		}
	}
	for c := protoEager; c <= protoSelf; c++ {
		rep.proto[c] = reg.Counter(rep.actor, "proto."+causal.ProtoName(c))
	}
	rep.sendLat = reg.Histogram(rep.actor, "send.latency")
	rep.recvLat = reg.Histogram(rep.actor, "recv.latency")
	rep.matchLat = reg.Histogram(rep.actor, "match.latency")
	rep.rndvRTT = reg.Histogram(rep.actor, "rndv.rtt")
	return rep
}

// step reports that protocol step k happened: toward peer, about the
// message with sequence id (or what the row says id is), moving n bytes.
func (r *Rank) step(p *sim.Proc, k stepKind, peer int, id uint64, n int) {
	row := &steps[k]
	if row.stat != nil {
		*row.stat(&r.Stats)++
	}
	rep := &r.rep
	if !rep.on {
		return
	}
	if row.addsN {
		rep.counters[k].Add(int64(n))
	} else {
		rep.counters[k].Inc()
	}
	if rep.rec != nil && row.put != nil {
		e := causal.Event{Kind: row.ev, Peer: int32(peer)}
		row.put(&e, id, n)
		r.emit(p, e)
	}
	if rep.ring != nil && row.trace != "" {
		rep.ring.Log(p.Now(), rep.actor, row.trace, "peer=%d seq=%d n=%d", peer, id, n)
	}
}

// emit stamps and records one causal event; callers have checked rec.
func (r *Rank) emit(p *sim.Proc, e causal.Event) {
	e.T, e.Rank, e.Wait = p.Now(), int32(r.id), r.rep.waitDepth > 0
	r.rep.rec.Emit(e)
}

// reqEvent fills the fields every request-lifecycle event shares.
func reqEvent(kind causal.Kind, q *Request) causal.Event {
	return causal.Event{Kind: kind, Peer: q.peer, Tag: q.tag, Seq: q.seq, CID: q.cid, Bytes: int32(q.slice.N)}
}

// ---- The life of a request ----

// opened starts the lifecycle span (post to completion) and the cid of
// a request just filled in; a receive is thereby posted.
func (r *Rank) opened(p *sim.Proc, q *Request) {
	rep := &r.rep
	if !rep.on {
		return
	}
	if rep.reg != nil {
		name, who := "recv", "src"
		if q.isSend {
			name, who = "send", "peer"
		}
		q.span = rep.reg.Begin(p.Now(), rep.actor, name)
		q.span.AttrInt(who, int64(q.peer)).AttrInt("bytes", int64(q.slice.N))
	}
	if rep.rec != nil {
		rep.cid++
		q.cid = rep.cid
		if !q.isSend {
			r.emit(p, reqEvent(causal.EvRecvPost, q))
		}
	}
}

// posted reports a send that has its pair and its sequence id — on its
// span too, unless it is loopback, with no cross-rank lifecycle to show.
func (r *Rank) posted(p *sim.Proc, q *Request) {
	r.Stats.BytesSent += int64(q.slice.N)
	r.step(p, stepSendPost, int(q.peer), q.seq, q.slice.N)
	if r.rep.rec != nil {
		r.emit(p, reqEvent(causal.EvSendPost, q))
	}
	if int(q.peer) != r.id {
		q.span.AttrInt("seq", int64(q.seq))
	}
}

// abandon closes the span of a request whose first contact with its
// peer failed: the caller never sees it, so nothing else will. It has no
// sequence id yet, hence no causal done event.
func (r *Rank) abandon(p *sim.Proc, q *Request, err error) error {
	q.span.Attr("error", err.Error()).End(p.Now())
	return err
}

// bound reports a receive taking pair src's next sequence id. A wildcard
// receive (q.peer is still AnySource) names src in the event only: its
// span has never carried the id, and the exports pin that.
func (r *Rank) bound(p *sim.Proc, q *Request, src int) {
	if int(q.peer) == src {
		q.span.AttrInt("seq", int64(q.seq))
	}
	if r.rep.rec != nil {
		e := reqEvent(causal.EvRecvBind, q)
		e.Peer = int32(src)
		r.emit(p, e)
	}
}

// matched reports a receive meeting its packet.
func (r *Rank) matched(p *sim.Proc, q *Request) {
	if h := r.rep.matchLat; h != nil {
		h.ObserveDuration(p.Now() - q.span.Start)
	}
}

// resolved classifies a request's protocol, at the decision point that
// settles it: once per request.
func (r *Rank) resolved(q *Request, proto uint8) {
	q.proto = proto
	if r.rep.reg != nil {
		r.rep.proto[proto].Inc()
		q.span.SetKind(causal.ProtoName(proto))
	}
}

// xferStarted reports the RDMA read or write — work request wrid — that
// moves the n bytes of q's message, and opens its span; xferDone closes
// the span when the work request completes.
func (r *Rank) xferStarted(p *sim.Proc, q *Request, kind wrKind, wrid uint64, n int) {
	k := stepRDMARead
	if kind == wrRndvWrite {
		k = stepRDMAWrite
	}
	if r.rep.reg != nil {
		q.xferSpan = q.span.Child(p.Now(), steps[k].trace).AttrInt("bytes", int64(n))
	}
	r.step(p, k, int(q.peer), q.seq, n)
	r.wrPosted(p, int(q.peer), kind, wrid, n)
}

func (r *Rank) xferDone(p *sim.Proc, q *Request) { q.xferSpan.End(p.Now()) }

// staging copies q's message into reg, its range of the offload send
// buffer, inside its span, and reports it, with the time it took, if it
// worked.
func (r *Rank) staging(p *sim.Proc, q *Request, reg offRegion) error {
	t0 := p.Now()
	if r.rep.reg != nil {
		q.xferSpan = q.span.Child(t0, steps[stepOffloadSync].trace).AttrInt("bytes", int64(q.slice.N))
	}
	err := r.arena.sync(p, reg, q.slice.Bytes())
	q.xferSpan.End(p.Now())
	if err == nil {
		r.step(p, stepOffloadSync, int(q.peer), q.seq, q.slice.N)
		if r.rep.rec != nil {
			r.emit(p, causal.Event{Kind: causal.EvDMASync, Peer: -1, Aux: uint64(p.Now() - t0), Bytes: int32(q.slice.N)})
		}
	}
	return err
}

// completed closes a request's spans and records its latency — and, for
// a rendezvous send the receiver read, the RTS-to-DONE round trip.
func (r *Rank) completed(p *sim.Proc, q *Request, err error) {
	rep := &r.rep
	if !rep.on {
		return
	}
	if rep.reg != nil {
		now := p.Now()
		q.xferSpan.End(now)
		if err != nil {
			q.span.Attr("error", err.Error())
		}
		q.span.End(now)
		if !q.isSend {
			rep.recvLat.ObserveDuration(now - q.span.Start)
		} else {
			rep.sendLat.ObserveDuration(now - q.span.Start)
			if err == nil && (q.proto == protoSenderRzv || q.proto == protoSimulRzv) {
				rep.rndvRTT.ObserveDuration(now - q.span.Start)
			}
		}
	}
	if rep.rec != nil {
		e := reqEvent(causal.EvRecvDone, q)
		if q.isSend {
			e.Kind = causal.EvSendDone
		}
		e.Proto = q.proto
		if err != nil {
			e.Aux = 1
		}
		r.emit(p, e)
	}
}

// ---- Packets, work requests, completions, blocking ----

// packetSent reports packet h written toward dst by work request wrid.
func (r *Rank) packetSent(p *sim.Proc, dst int, h header, kind wrKind, wrid uint64) {
	if r.rep.rec != nil {
		r.emit(p, causal.Event{Kind: causal.EvPktSend, Peer: int32(dst), Tag: h.tag, Pkt: h.kind, Seq: h.seq, PSN: h.psn, Bytes: int32(h.payload)})
		r.wrPosted(p, dst, kind, wrid, h.payload)
	}
}

// packetRecvd reports packet h consumed from src's ring.
func (r *Rank) packetRecvd(p *sim.Proc, src int, h header) {
	if r.rep.rec != nil {
		r.emit(p, causal.Event{Kind: causal.EvPktRecv, Peer: int32(src), Tag: h.tag, Pkt: h.kind, Seq: h.seq, PSN: h.psn, Bytes: int32(h.payload)})
	}
}

// wrPosted reports work request wrid posted toward peer.
func (r *Rank) wrPosted(p *sim.Proc, peer int, kind wrKind, wrid uint64, n int) {
	if r.rep.rec != nil {
		r.emit(p, causal.Event{Kind: causal.EvWRPost, Peer: int32(peer), Pkt: uint8(kind), Aux: wrid, Bytes: int32(n)})
	}
}

// cqe reports the completion of work request wrid consumed.
func (r *Rank) cqe(p *sim.Proc, act wrAction, wrid uint64) {
	if r.rep.rec != nil {
		r.emit(p, causal.Event{Kind: causal.EvCQE, Peer: int32(act.peer), Pkt: uint8(act.kind), Aux: wrid})
	}
}

// waitStart and waitEnd bracket a Wait on q that has to block; neither
// event counts as emitted while waiting.
func (r *Rank) waitStart(p *sim.Proc, q *Request) {
	if r.rep.rec != nil {
		r.emit(p, causal.Event{Kind: causal.EvWaitStart, Peer: -1, CID: q.cid})
		r.rep.waitDepth++
	}
}

func (r *Rank) waitEnd(p *sim.Proc, q *Request) {
	if r.rep.rec != nil {
		r.rep.waitDepth--
		r.emit(p, causal.Event{Kind: causal.EvWaitEnd, Peer: -1, CID: q.cid})
	}
}

// collective runs the body of one collective call inside its reports:
// the coll.<op>.<algo> counter and the coll.<op> span, and the causal
// enter/exit pair, which carries algo in Pkt — each so that reports can
// tell ring-allreduce traffic, and stragglers, from naive.
func (r *Rank) collective(p *sim.Proc, op int32, algo uint8, body func() error) error {
	rep := &r.rep
	if !rep.on {
		return body()
	}
	e := causal.Event{Kind: causal.EvCollEnter, Peer: -1, Tag: op, Pkt: algo}
	if rep.rec != nil {
		rep.collSeq++
		e.Aux = rep.collSeq
		r.emit(p, e)
	}
	var span *metrics.Span
	if rep.reg != nil {
		rep.reg.Counter(rep.actor, "coll."+causal.CollName(op)+"."+algoNames[algo]).Inc()
		span = rep.reg.Begin(p.Now(), rep.actor, "coll."+causal.CollName(op)).Attr("algo", algoNames[algo])
	}
	err := body()
	span.End(p.Now())
	if rep.rec != nil {
		e.Kind = causal.EvCollExit
		r.emit(p, e)
	}
	return err
}
