package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/ib"
	"repro/internal/machine"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// peerState is everything a rank holds per remote peer.
type peerState struct {
	qp *ib.QP
	// in is the local eager ring this peer writes into.
	in *ring
	// out describes the peer's ring we write into.
	out ringDesc
	// credits is how many free remote slots we may still write.
	credits int
	// nextSlot is the next remote slot index to write.
	nextSlot int
	// toReturn counts locally consumed slots not yet credited back.
	toReturn int
	// staging is the registered packet-assembly buffer (header +
	// payload + tail) for sends to this peer.
	staging   *machine.Buffer
	stagingMR *ib.MR
	// pendingSends are eager packets waiting for ring credit.
	pendingSends []*Request
	// pendingCtrl are control packets (RTS/RTR/DONE) waiting for ring
	// credit; drained before pendingSends.
	pendingCtrl []header

	// Transport sequence numbers for fault recovery: sendPSN numbers
	// packets written into the peer's ring (replays keep the original
	// number); recvPSN is the next number this side will accept —
	// anything below it is a replayed duplicate and is discarded.
	sendPSN uint64
	recvPSN uint64
	// rlid/rqpn identify the peer endpoint for QP reconnects after a
	// fault-induced error state (captured during bootstrap).
	rlid uint16
	rqpn uint32
	// postponed holds WR ids formed while the QP was errored; they are
	// reissued in order once the QP is reconnected.
	postponed []uint64
}

// Stats aggregates per-rank communication counters.
type Stats struct {
	MsgsSent       int64
	BytesSent      int64
	EagerSends     int64
	RndvSends      int64
	RndvWrites     int64 // rendezvous sends this rank moved itself (receiver-first RDMA write)
	OffloadedSends int64
	CreditPackets  int64
	Unexpected     int64
	SelfMsgs       int64
	OffloadedPacks int64

	// Fault-recovery counters (nonzero only under an active plan).
	Retries        int64
	QPResets       int64
	ReplaysDeduped int64
}

// Rank is one MPI process.
type Rank struct {
	w    *World
	id   int
	proc *sim.Proc
	v    Verbs

	pd      *ib.PD
	cq      *ib.CQ
	peers   []*peerState
	mrCache *MRCache
	arena   *offArena

	// active lists peer indices with live endpoints, sorted ascending,
	// so the progress engine scans exactly the connected pairs instead
	// of a thousand-entry mostly-nil peer table. Under eager connect it
	// holds every peer; under lazy connect it grows as pairs first
	// communicate.
	active []int

	// cqeBuf is the persistent completion buffer progress drains into
	// (ibv-style PollInto), so the per-event CQ drain never allocates.
	cqeBuf [16]ib.CQE

	sendSeq []uint64
	recvSeq []uint64

	// expRecv[i][seq] is the posted receive expecting that packet.
	expRecv []map[uint64]*Request
	// unexpected[i][seq] holds inbound data packets (eager payloads and
	// RTS announcements) with no matching receive yet, keyed by the
	// i→me sequence space.
	unexpected []map[uint64]*arrival
	// earlyRTR[i][seq] holds RTRs that arrived before their Isend,
	// keyed by the me→i sequence space (receiver-first case). RTS and
	// RTR sequence ids live in opposite directed-pair spaces and must
	// never share a map.
	earlyRTR []map[uint64]header
	// sendsBySeq[i][seq] routes RTR/DONE packets to in-flight sends.
	sendsBySeq []map[uint64]*Request

	// ANY_SOURCE locking per §IV-B3.
	anyActive *Request
	deferred  []*Request

	// selfQueue holds loopback messages sent to self before the recv.
	selfUnexpected map[uint64]*arrival
	selfSendSeq    uint64
	selfRecvSeq    uint64

	// arrivalFree recycles arrival records after their match, so
	// steady-state unexpected traffic allocates no record per packet.
	arrivalFree []*arrival

	// wrFree recycles send work requests (and their cap-3 SGL backing)
	// once their completion has been routed, so the per-packet path
	// allocates no WR or SGE state in steady state. Recycling is
	// disabled under an active fault plan: replay needs the formed WR
	// to survive until its retry budget is spent.
	wrFree []*ib.SendWR
	// pktFree recycles the fault-mode packet snapshots sendPacket
	// retains for replay.
	pktFree [][]byte

	wrSeq uint64
	wrMap map[uint64]wrAction

	// world is the identity group, built once at setup and returned by
	// CommWorld. Embedding its group gives Rank the collectives —
	// Barrier, Bcast, Reduce, Allreduce, Gather(v), Scatter(v),
	// Allgather, Scan, ReduceScatter, Alltoall — run on the world.
	world Comm
	*group
	// splitSeq numbers Comm.Split calls for consistent communicator
	// ids (Split is collective, so every member sees the same count).
	splitSeq int

	// m holds telemetry handles; its zero value (metrics disabled)
	// makes every record a nil-check no-op.
	m rankMetrics

	// c holds the causal-profiling handle; its zero value (profiling
	// disabled) makes every emit a nil-check no-op.
	c rankCausal

	// fatal is set when transport recovery gives up on a WR that has
	// no owning request to fail (control packets): the rank cannot
	// guarantee protocol progress anymore, so Wait and finalize abort
	// with this error instead of spinning.
	fatal error

	Stats Stats
}

// ID returns this rank's number.
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return r.w.Size() }

// Proc returns the simulated process running this rank.
func (r *Rank) Proc() *sim.Proc { return r.proc }

// Now returns the current virtual time.
func (r *Rank) Now() sim.Time { return r.proc.Now() }

// World returns the owning world.
func (r *Rank) World() *World { return r.w }

// Mem allocates n bytes in this rank's memory domain (host memory for
// host ranks, co-processor memory for DCFA/Phi ranks).
func (r *Rank) Mem(n int) *machine.Buffer { return r.v.Domain().Alloc(n) }

// Domain returns the memory domain this rank's buffers live in.
func (r *Rank) Domain() *machine.Domain { return r.v.Domain() }

// Loc returns where the rank's MPI software executes.
func (r *Rank) Loc() machine.DomainKind { return r.v.Loc() }

// trace records a protocol event when tracing is enabled: kind names
// the protocol step, peer the other rank, seq the message sequence
// number (the packet sequence number for replay-drop, the work-request
// id for wr-replay) and n the byte count (the expected psn for
// replay-drop, the attempt for wr-replay). The signature is not
// variadic so that call sites box nothing while tracing is off.
func (r *Rank) trace(kind string, peer int, seq uint64, n int) {
	if tr := r.w.Cfg.Trace; tr != nil {
		tr.Log(r.proc.Now(), fmt.Sprintf("rank%d", r.id), kind, "peer=%d seq=%d n=%d", peer, seq, n)
	}
}

// MRCacheStats reports buffer-cache-pool hits and misses.
func (r *Rank) MRCacheStats() (hits, misses int64) {
	return r.mrCache.Hits, r.mrCache.Misses
}

// setup builds this rank's verbs resources (phase 1 of bootstrap).
func (r *Rank) setup(p *sim.Proc) error {
	cfg := r.w.Cfg
	var err error
	if r.pd, err = r.v.AllocPD(p); err != nil {
		return err
	}
	if r.cq, err = r.v.CreateCQ(p, 1<<16); err != nil {
		return err
	}
	r.mrCache = NewMRCache(r.v, r.pd, cfg.MRCacheCap)
	r.m = newRankMetrics(cfg.Metrics, r.id)
	r.c = newRankCausal(cfg.Causal, r.id)
	r.mrCache.instrument(cfg.Metrics, r.m.actor)
	n := r.w.Size()
	r.peers = make([]*peerState, n)
	r.sendSeq = make([]uint64, n)
	r.recvSeq = make([]uint64, n)
	r.expRecv = make([]map[uint64]*Request, n)
	r.unexpected = make([]map[uint64]*arrival, n)
	r.earlyRTR = make([]map[uint64]header, n)
	r.sendsBySeq = make([]map[uint64]*Request, n)
	r.selfUnexpected = make(map[uint64]*arrival)
	r.wrMap = make(map[uint64]wrAction)
	if r.w.lazyConnect() {
		// Lazy connect: endpoint pairs (and their per-pair maps) are
		// built by ensurePeer at the pair's first message. Only the
		// loopback map is needed up front.
		r.expRecv[r.id] = make(map[uint64]*Request)
	} else {
		for i := 0; i < n; i++ {
			r.expRecv[i] = make(map[uint64]*Request)
			r.unexpected[i] = make(map[uint64]*arrival)
			r.earlyRTR[i] = make(map[uint64]header)
			r.sendsBySeq[i] = make(map[uint64]*Request)
			if i == r.id {
				continue
			}
			if _, err := r.makePeerHalf(p, i); err != nil {
				return err
			}
		}
	}
	if cfg.Offload && r.v.SupportsOffload() {
		var err error
		r.arena, err = newOffArena(p, r.v, cfg.OffloadArena)
		if err != nil {
			return err
		}
	}
	return nil
}

// connect wires QPs and ring descriptors against every peer (phase 2;
// the out-of-band bootstrap a process manager would provide).
func (r *Rank) connect(p *sim.Proc) error {
	for i, ps := range r.peers {
		if ps == nil {
			continue
		}
		peer := r.w.ranks[i]
		if len(peer.peers) <= r.id || peer.peers[r.id] == nil || peer.peers[r.id].qp == nil {
			// The peer's setup failed (possible under CMD-channel
			// faults); surface a typed bootstrap error, not a panic.
			return fmt.Errorf("core: rank %d has no endpoint for rank %d (peer setup failed)", i, r.id)
		}
		other := peer.peers[r.id]
		// Remember the peer endpoint so fault recovery can reconnect
		// after a QP reset.
		ps.rlid = peer.v.HCA().LID
		ps.rqpn = other.qp.QPN
		if err := ps.qp.Connect(ps.rlid, ps.rqpn); err != nil {
			return err
		}
		ps.out = other.in.desc()
		ps.credits = ps.out.slots
	}
	return nil
}

// makePeerHalf builds this rank's endpoint toward peer i (QP, eager
// ring, staging buffer) plus the per-pair matching maps, and records i
// in the active-peer list. It does not wire the QP; setup/connect (the
// eager bootstrap) or ensurePeer (lazy) do that.
func (r *Rank) makePeerHalf(p *sim.Proc, i int) (*peerState, error) {
	if r.expRecv[i] == nil {
		r.expRecv[i] = make(map[uint64]*Request)
		r.unexpected[i] = make(map[uint64]*arrival)
		r.earlyRTR[i] = make(map[uint64]header)
		r.sendsBySeq[i] = make(map[uint64]*Request)
	}
	cfg := r.w.Cfg
	dom := r.v.Domain()
	ps := &peerState{}
	var err error
	if ps.qp, err = r.v.CreateQP(p, r.pd, r.cq, r.cq); err != nil {
		return nil, err
	}
	ps.in, err = newRing(p, r.v, r.pd, dom, cfg.EagerSlots, cfg.EagerMax)
	if err != nil {
		return nil, err
	}
	ps.staging = dom.Alloc(slotBytes(cfg.EagerMax))
	ps.stagingMR, err = r.v.RegMR(p, r.pd, dom, ps.staging.Addr, len(ps.staging.Data))
	if err != nil {
		return nil, err
	}
	r.peers[i] = ps
	r.insertActive(i)
	return ps, nil
}

// insertActive records a connected peer, keeping the list sorted so
// progress scans peers in rank order regardless of connection order —
// the property that keeps lazy-connect runs deterministic.
func (r *Rank) insertActive(i int) {
	at := sort.SearchInts(r.active, i)
	r.active = append(r.active, 0)
	copy(r.active[at+1:], r.active[at:])
	r.active[at] = i
}

// ensurePeer returns the endpoint toward peer i, building and wiring
// BOTH halves of the pair on first use under lazy connect. The peer's
// resources are created in the caller's process context — the
// simulation's stand-in for the out-of-band connection establishment a
// process manager performs — so lazy bootstrap stays deterministic.
func (r *Rank) ensurePeer(p *sim.Proc, i int) (*peerState, error) {
	key := [2]int{r.id, i}
	if i < r.id {
		key = [2]int{i, r.id}
	}
	for {
		if ps := r.peers[i]; ps != nil {
			return ps, nil
		}
		ev := r.w.connInFlight[key]
		if ev == nil {
			break
		}
		// The peer is mid-bootstrap toward us (mutual first contact —
		// e.g. a symmetric Sendrecv exchange): QP and ring creation
		// yield to the engine, so without this wait both sides would
		// build the pair and orphan each other's half.
		ev.Wait(p)
	}
	claim := sim.NewEvent(r.w.Eng)
	r.w.connInFlight[key] = claim
	defer func() {
		delete(r.w.connInFlight, key)
		claim.Fire()
	}()
	peer := r.w.ranks[i]
	mine, err := r.makePeerHalf(p, i)
	if err != nil {
		return nil, err
	}
	theirs, err := peer.makePeerHalf(p, r.id)
	if err != nil {
		return nil, err
	}
	mine.rlid, mine.rqpn = peer.v.HCA().LID, theirs.qp.QPN
	if err := mine.qp.Connect(mine.rlid, mine.rqpn); err != nil {
		return nil, err
	}
	mine.out = theirs.in.desc()
	mine.credits = mine.out.slots
	theirs.rlid, theirs.rqpn = r.v.HCA().LID, mine.qp.QPN
	if err := theirs.qp.Connect(theirs.rlid, theirs.rqpn); err != nil {
		return nil, err
	}
	theirs.out = mine.in.desc()
	theirs.credits = theirs.out.slots
	return mine, nil
}

// finalize drains queued outbound control packets and credit-starved
// sends before the rank exits (MPI_Finalize semantics): a DONE stuck
// behind ring flow control must still reach its peer or the peer hangs.
func (r *Rank) finalize(p *sim.Proc) {
	for {
		if r.fatal != nil {
			// Transport recovery gave up; queued packets can never be
			// delivered and waiting would deadlock the engine.
			return
		}
		pending := false
		for _, i := range r.active {
			ps := r.peers[i]
			if len(ps.pendingCtrl) > 0 || len(ps.pendingSends) > 0 || len(ps.postponed) > 0 {
				pending = true
				break
			}
		}
		if !pending {
			return
		}
		if !r.progress(p) {
			r.v.HCA().Doorbell.Wait(p)
		}
	}
}

// nextWR allocates a work-request id and registers its routing.
func (r *Rank) nextWR(a wrAction) uint64 {
	r.wrSeq++
	r.wrMap[r.wrSeq] = a
	return r.wrSeq
}

// faultsOn reports whether a fault plan with any nonzero rate is
// installed (the recovery paths are compiled out of the hot path
// behind this check).
func (r *Rank) faultsOn() bool { return r.w.Cfg.Faults.Enabled() }

// post issues wr on the QP toward peer dst. If the QP is not connected
// (errored by a fault, awaiting recovery), the fully-formed WR is
// postponed and reissued in order once recovery reconnects — without
// this, progress handling a ring packet between the error and the CQ
// poll could post into the errored QP and fail synchronously.
func (r *Rank) post(p *sim.Proc, dst int, wr *ib.SendWR) error {
	ps := r.peers[dst]
	if ps.qp.State != ib.QPConnected {
		ps.postponed = append(ps.postponed, wr.WRID)
		return nil
	}
	return r.v.PostSend(p, ps.qp, wr)
}

// reissue (re)posts the WR identified by act: packet WRs are restored
// from their retained byte snapshot into the staging buffer and
// rewritten to their original ring slot (same psn, no new credit);
// rendezvous WRs are reposted as formed, their buffers still pinned.
// Retransmission only runs after a fault: off the per-event budget.
func (r *Rank) reissue(p *sim.Proc, wrid uint64, act wrAction) error {
	ps := r.peers[act.peer]
	switch act.kind {
	case wrEager, wrCtrl:
		copy(ps.staging.Data[:len(act.pkt)], act.pkt)
		wr := &ib.SendWR{
			WRID:     wrid,
			Opcode:   ib.OpRDMAWrite,
			SGL:      []ib.SGE{{Addr: ps.staging.Addr, Len: len(act.pkt), LKey: ps.stagingMR.LKey}},
			Remote:   ib.RemoteAddr{Addr: ps.out.slotAddr(act.slot), RKey: ps.out.rkey},
			Signaled: true,
			Inline:   true, // staging is rebuilt by the next packet
		}
		return r.v.PostSend(p, ps.qp, wr)
	default:
		return r.v.PostSend(p, ps.qp, act.wr)
	}
}

// recoverWR handles a retry-exhaustion completion: reset and reconnect
// the errored QP, then replay the WR until the plan's budget runs out,
// at which point the owning request (or the rank, for control packets)
// fails with a typed TransportError. Recovery only runs after retry
// exhaustion: off the per-event budget.
func (r *Rank) recoverWR(p *sim.Proc, wrid uint64, act wrAction) {
	ps := r.peers[act.peer]
	if ps.qp.State == ib.QPError {
		ps.qp.Reset()
		if err := ps.qp.Connect(ps.rlid, ps.rqpn); err != nil {
			r.failWR(p, act, fmt.Errorf("core: reconnect to rank %d: %w", act.peer, err))
			return
		}
		r.Stats.QPResets++
		r.m.qpResets.Inc()
		r.c.qpReset(p.Now(), act.peer)
		r.trace("qp-reset", act.peer, 0, 0)
	}
	act.tries++
	if act.tries > r.w.Cfg.Faults.MaxRetries() {
		r.failWR(p, act, &TransportError{Peer: act.peer, Op: act.kind.String(), Tries: act.tries})
		return
	}
	r.wrMap[wrid] = act
	r.Stats.Retries++
	r.m.faultRetries.Inc()
	r.c.replay(p.Now(), act.peer, wrid)
	r.trace("wr-replay", act.peer, wrid, act.tries)
	if err := r.reissue(p, wrid, act); err != nil {
		delete(r.wrMap, wrid)
		r.failWR(p, act, err)
	}
}

// failWR gives up on a work request: requests complete with the error;
// ownerless control packets poison the rank instead, because a lost
// RTS/RTR/DONE breaks the protocol for an unknowable set of requests.
func (r *Rank) failWR(p *sim.Proc, act wrAction, err error) {
	if act.req != nil {
		act.req.complete(p, err)
		return
	}
	if r.fatal == nil {
		r.fatal = err
	}
}

// newSendWR hands out a pooled send work request with SGL capacity for
// the three-element packet layout (header, payload, tail). handleCQE
// recycles completed WRs when no fault plan is active, so the
// per-packet path allocates no WR or SGE state in steady state.
func (r *Rank) newSendWR() *ib.SendWR {
	n := len(r.wrFree)
	if n == 0 {
		return &ib.SendWR{SGL: make([]ib.SGE, 0, 3)}
	}
	wr := r.wrFree[n-1]
	r.wrFree = r.wrFree[:n-1]
	return wr
}

// recycleWR returns a routed work request to the free list, keeping
// its SGL backing. Callers must only recycle WRs the transport cannot
// touch again (completion routed, no fault plan that could replay it).
func (r *Rank) recycleWR(wr *ib.SendWR) {
	if wr == nil {
		return
	}
	*wr = ib.SendWR{SGL: wr.SGL[:0]}
	r.wrFree = append(r.wrFree, wr)
}

// snapPkt snapshots staged packet bytes for fault-mode replay, reusing
// retired snapshot backing. Only called while a fault plan is active.
func (r *Rank) snapPkt(b []byte) []byte {
	n := len(r.pktFree)
	if n == 0 || cap(r.pktFree[n-1]) < len(b) {
		return append([]byte(nil), b...)
	}
	s := r.pktFree[n-1]
	r.pktFree = r.pktFree[:n-1]
	return append(s[:0], b...)
}

// recyclePkt returns a replay snapshot's backing to the pool.
func (r *Rank) recyclePkt(b []byte) {
	if b == nil {
		return
	}
	r.pktFree = append(r.pktFree, b)
}

// sendPacket assembles and RDMA-writes one packet into the peer's ring.
// The caller must hold a credit (credits > 0). Consumed local slots are
// piggybacked back as credits on every outgoing header.
func (r *Rank) sendPacket(p *sim.Proc, dst int, h header, payload []byte, act wrAction) error {
	ps := r.peers[dst]
	if ps.credits <= 0 {
		panic("core: sendPacket without credit")
	}
	ps.credits--
	h.src = uint16(r.id)
	h.payload = len(payload)
	h.credits = uint32(ps.toReturn)
	ps.toReturn = 0
	h.psn = ps.sendPSN
	ps.sendPSN++
	s := ps.staging.Data
	h.encode(s[:hdrSize])
	if len(payload) > 0 {
		// The eager copy into the preregistered global buffer.
		copy(s[hdrSize:hdrSize+len(payload)], payload)
		p.Sleep(r.w.Plat.CopyCost(r.v.Loc(), len(payload)))
	}
	binary.LittleEndian.PutUint64(s[hdrSize+len(payload):], tailMarker(h.seq))
	slot := ps.nextSlot
	ps.nextSlot = (ps.nextSlot + 1) % ps.out.slots
	act.peer = dst
	if r.faultsOn() {
		// Retain the packet bytes: staging is reused by later sends,
		// but a replay must rewrite exactly these bytes (same psn) to
		// the same slot.
		act.slot = slot
		act.pkt = r.snapPkt(s[:hdrSize+len(payload)+tailSize])
	}
	// Header SGE + data SGE + tail SGE, as the paper lays the packet out.
	wr := r.newSendWR()
	wr.Opcode = ib.OpRDMAWrite
	wr.Remote = ib.RemoteAddr{Addr: ps.out.slotAddr(slot), RKey: ps.out.rkey}
	wr.Signaled = true
	// The next packet to this peer is assembled in the same staging slot
	// before this one completes, so the HCA takes the bytes at post time.
	wr.Inline = true
	wr.SGL = append(wr.SGL, ib.SGE{Addr: ps.staging.Addr, Len: hdrSize, LKey: ps.stagingMR.LKey})
	if len(payload) > 0 {
		wr.SGL = append(wr.SGL, ib.SGE{Addr: ps.staging.Addr + hdrSize, Len: len(payload), LKey: ps.stagingMR.LKey})
	}
	wr.SGL = append(wr.SGL, ib.SGE{Addr: ps.staging.Addr + uint64(hdrSize+len(payload)), Len: tailSize, LKey: ps.stagingMR.LKey})
	act.wr = wr
	wrid := r.nextWR(act)
	wr.WRID = wrid
	r.c.pktSend(p.Now(), dst, h, len(payload))
	r.c.wrPost(p.Now(), dst, act.kind, wrid, len(payload))
	return r.post(p, dst, wr)
}

// ---- Point-to-point API ----

// Isend starts a nonblocking send of s to dst with tag.
func (r *Rank) Isend(p *sim.Proc, dst, tag int, s Slice) (*Request, error) {
	if dst < 0 || dst >= r.w.Size() {
		return nil, ErrBadRank
	}
	req := &Request{r: r, isSend: true, peer: dst, tag: tag, slice: s, startT: p.Now()}
	if r.m.reg != nil {
		req.span = r.m.span(req.startT, "send")
		req.span.AttrInt("peer", int64(dst)).AttrInt("bytes", int64(s.N))
	}
	if r.c.on() {
		req.cid = r.c.nextCID()
	}
	p.Sleep(r.w.Plat.MPIPerMsg(r.v.Loc()))
	r.Stats.MsgsSent++
	r.Stats.BytesSent += int64(s.N)
	if dst == r.id {
		r.m.resolve(req, KindSelf)
		r.c.sendPost(p.Now(), req)
		r.selfSend(p, req)
		return req, nil
	}
	if _, err := r.ensurePeer(p, dst); err != nil {
		return nil, r.abandon(p, req, err)
	}
	req.seq = r.sendSeq[dst]
	r.sendSeq[dst]++
	req.hasSeq = true
	req.span.AttrInt("seq", int64(req.seq))
	r.c.sendPost(p.Now(), req)
	// Drain arrived packets first: an RTR for this very sequence id may
	// already be waiting (receiver-first), which changes the protocol.
	r.progress(p)
	if s.N <= r.w.Cfg.EagerMax {
		r.Stats.EagerSends++
		r.m.resolve(req, KindEager)
		r.trySendEager(p, req)
		return req, nil
	}
	return req, r.startRendezvousSend(p, req)
}

// abandon closes the lifecycle span of a request whose first contact
// with its peer failed: the caller never sees the request, so nothing
// else will. It has no sequence id yet, hence no causal done event.
func (r *Rank) abandon(p *sim.Proc, req *Request, err error) error {
	req.span.Attr("error", err.Error()).End(p.Now())
	return err
}

// trySendEager posts the eager packet now or queues it for credit.
func (r *Rank) trySendEager(p *sim.Proc, req *Request) {
	// Sender-eager / receiver-rendezvous mis-prediction where the RTR
	// arrived before this send was even posted: drop it — the sequence
	// id guarantees it belonged to this send only.
	if _, ok := r.earlyRTR[req.peer][req.seq]; ok {
		delete(r.earlyRTR[req.peer], req.seq)
		r.m.mispredicts.Inc()
		r.c.mispredict(p.Now(), req.peer, req.seq)
		r.trace("mispredict-rtr-drop", req.peer, req.seq, 0)
	}
	ps := r.peers[req.peer]
	if ps.credits <= 1 {
		req.state = stEagerQueued
		ps.pendingSends = append(ps.pendingSends, req)
		return
	}
	h := header{kind: pktEager, tag: int32(req.tag), seq: req.seq}
	if err := r.sendPacket(p, req.peer, h, req.slice.Bytes(), wrAction{kind: wrEager, req: req}); err != nil {
		req.complete(p, err)
		return
	}
	req.state = stEagerSent
	r.trace("eager-send", req.peer, req.seq, req.slice.N)
}

// startRendezvousSend stages (or registers) the send buffer, then either
// answers an already-arrived RTR (receiver-first) or sends an RTS
// (sender-first).
func (r *Rank) startRendezvousSend(p *sim.Proc, req *Request) error {
	r.Stats.RndvSends++
	s := req.slice
	useOffload := r.arena != nil && s.N >= r.w.Cfg.OffloadMinSize
	if useOffload {
		if reg := r.arena.alloc(s.N); reg != nil {
			// sync_offload_mr: stage the latest data into the host
			// bounce buffer through the DMA engine before any send.
			syncT := p.Now()
			ss := req.span.Child(syncT, "offload-sync")
			err := r.arena.sync(p, reg, s.Bytes())
			ss.AttrInt("bytes", int64(s.N))
			ss.End(p.Now())
			var abort *pcie.DMAAbortError
			switch {
			case err == nil:
				req.offReg = reg
				req.advAddr = reg.addr()
				req.advKey = reg.rkey()
				r.Stats.OffloadedSends++
				r.m.offStaged.Add(int64(s.N))
				r.c.dmaSync(p.Now(), p.Now()-syncT, s.N)
				r.trace("offload-sync", req.peer, req.seq, s.N)
			case errors.As(err, &abort):
				// The DMA engine aborted the staging copy: release the
				// region and fall back to sending straight from
				// co-processor memory.
				r.arena.release(reg)
				useOffload = false
				r.m.offFallback.Inc()
				r.c.fallback(p.Now(), req.peer, s.N)
				r.trace("offload-abort", req.peer, req.seq, s.N)
			default:
				return err
			}
		} else {
			useOffload = false
			r.m.offFallback.Inc()
		}
	}
	if !useOffload {
		mr, err := r.mrCache.Get(p, s.Buf.Dom, s.Addr(), s.N)
		if err != nil {
			return err
		}
		req.advAddr = s.Addr()
		req.advKey = mr.RKey
		req.srcMR = mr
		req.heldMRs = append(req.heldMRs, mr)
	}
	r.sendsBySeq[req.peer][req.seq] = req

	// Receiver-first: an RTR for this sequence may already be here.
	if rtr, ok := r.earlyRTR[req.peer][req.seq]; ok {
		delete(r.earlyRTR[req.peer], req.seq)
		r.trace("recv-first", req.peer, req.seq, 0)
		return r.rndvWrite(p, req, rtr)
	}
	h := header{kind: pktRTS, tag: int32(req.tag), seq: req.seq, raddr: req.advAddr, rkey: req.advKey, rsize: s.N}
	if err := r.ctrlSend(p, req.peer, h); err != nil {
		return err
	}
	req.state = stRTSSent
	r.trace("rts-send", req.peer, req.seq, s.N)
	return nil
}

// rndvWrite performs the receiver-first protocol's RDMA write into the
// buffer advertised by the RTR, followed by a DONE packet on completion.
func (r *Rank) rndvWrite(p *sim.Proc, req *Request, rtr header) error {
	if req.slice.N > rtr.rsize {
		// Receiver-first truncation: abort both sides.
		delete(r.sendsBySeq[req.peer], req.seq)
		req.complete(p, ErrTruncate)
		return r.ctrlSend(p, req.peer, header{kind: pktNackW, seq: req.seq})
	}
	wr := r.newSendWR()
	wr.Opcode = ib.OpRDMAWrite
	wr.Remote = ib.RemoteAddr{Addr: rtr.raddr, RKey: rtr.rkey}
	wr.Signaled = true
	if req.offReg != nil {
		wr.SGL = append(wr.SGL, ib.SGE{Addr: req.advAddr, Len: req.slice.N, LKey: req.offReg.lkey()})
	} else {
		// Reuse the registration advertised with the RTS; it is pinned
		// until this request completes.
		wr.SGL = append(wr.SGL, ib.SGE{Addr: req.slice.Addr(), Len: req.slice.N, LKey: req.srcMR.LKey})
	}
	// The WR rides in the action for replay under faults and for
	// recycling on completion otherwise.
	wrid := r.nextWR(wrAction{kind: wrRndvWrite, req: req, peer: req.peer, wr: wr})
	wr.WRID = wrid
	r.Stats.RndvWrites++
	req.state = stWriting
	r.m.resolve(req, KindRecvRzv)
	if r.m.reg != nil {
		req.xferSpan = req.span.Child(p.Now(), "rdma-write").AttrInt("bytes", int64(req.slice.N))
	}
	r.c.wrPost(p.Now(), req.peer, wrRndvWrite, wrid, req.slice.N)
	r.trace("rdma-write", req.peer, req.seq, req.slice.N)
	return r.post(p, req.peer, wr)
}

// ctrlSend transmits a zero-payload control packet (control packets
// share the eager rings); with no credit available it is queued and
// drained by progress. Sequence-id matching makes the resulting
// reordering harmless.
func (r *Rank) ctrlSend(p *sim.Proc, dst int, h header) error {
	ps := r.peers[dst]
	if ps.credits <= 1 || len(ps.pendingCtrl) > 0 {
		ps.pendingCtrl = append(ps.pendingCtrl, h)
		return nil
	}
	return r.sendPacket(p, dst, h, nil, wrAction{kind: wrCtrl, peer: dst})
}

// Irecv starts a nonblocking receive into s from src (or AnySource)
// with tag (or AnyTag).
func (r *Rank) Irecv(p *sim.Proc, src, tag int, s Slice) (*Request, error) {
	if src != AnySource && (src < 0 || src >= r.w.Size()) {
		return nil, ErrBadRank
	}
	req := &Request{r: r, peer: src, tag: tag, anyTag: tag == AnyTag, slice: s, startT: p.Now()}
	if r.m.reg != nil {
		req.span = r.m.span(req.startT, "recv")
		req.span.AttrInt("src", int64(src)).AttrInt("bytes", int64(s.N))
	}
	if r.c.on() {
		req.cid = r.c.nextCID()
		r.c.recvPost(p.Now(), req)
	}
	if src == r.id {
		r.m.resolve(req, KindSelf)
		r.selfRecv(p, req)
		return req, nil
	}
	if src != AnySource {
		if _, err := r.ensurePeer(p, src); err != nil {
			return nil, r.abandon(p, req, err)
		}
	}
	// Drain arrived packets first: an RTS already in the ring turns a
	// would-be receiver-first handshake into a direct sender-first read.
	r.progress(p)
	if src == AnySource {
		// §IV-B3: an ANY_SOURCE receive locks sequence assignment for
		// all later receives until it finds its match.
		if r.anyActive == nil {
			r.anyActive = req
			r.m.anyLocks.Inc()
			r.c.anyLock(p.Now(), req.cid)
			r.matchAnyAgainstUnexpected(p)
		} else {
			r.deferred = append(r.deferred, req)
			r.c.anyDefer(p.Now(), req.cid)
		}
		return req, nil
	}
	if r.anyActive != nil {
		// Locked: later receives cannot get a sequence id yet.
		r.deferred = append(r.deferred, req)
		r.c.anyDefer(p.Now(), req.cid)
		return req, nil
	}
	r.bindRecv(p, req, src)
	return req, nil
}

// bindRecv assigns the next per-pair sequence id to a receive and
// matches it against unexpected arrivals, possibly sending an RTR.
func (r *Rank) bindRecv(p *sim.Proc, req *Request, src int) {
	req.peer = src
	req.seq = r.recvSeq[src]
	r.recvSeq[src]++
	req.hasSeq = true
	req.span.AttrInt("seq", int64(req.seq))
	r.c.recvBind(p.Now(), req)
	if a, ok := r.unexpected[src][req.seq]; ok {
		delete(r.unexpected[src], req.seq)
		r.matchArrival(p, req, a)
		return
	}
	r.expRecv[src][req.seq] = req
	req.state = stPosted
	if req.slice.N > r.w.Cfg.EagerMax {
		// Receiver-first rendezvous: advertise the receive buffer.
		mr, err := r.mrCache.Get(p, req.slice.Buf.Dom, req.slice.Addr(), req.slice.N)
		if err != nil {
			req.complete(p, err)
			delete(r.expRecv[src], req.seq)
			return
		}
		req.heldMRs = append(req.heldMRs, mr)
		h := header{kind: pktRTR, tag: int32(req.tag), seq: req.seq, raddr: req.slice.Addr(), rkey: mr.RKey, rsize: req.slice.N}
		if err := r.ctrlSend(p, src, h); err != nil {
			req.complete(p, err)
			delete(r.expRecv[src], req.seq)
			return
		}
		req.state = stRTRWait
		r.trace("rtr-send", src, req.seq, req.slice.N)
	}
}

// tagsMatch applies MPI tag-matching rules between a receive request and
// a packet header.
func tagsMatch(req *Request, h header) bool {
	if req.anyTag || h.anyTag {
		return true
	}
	return int32(req.tag) == h.tag
}

// newArrival hands out a pooled arrival record. handlePacket builds one
// per inbound data packet, so an unpooled record would be a per-event
// heap allocation on the progress path.
func (r *Rank) newArrival(h header, data []byte) *arrival {
	n := len(r.arrivalFree)
	if n == 0 {
		return &arrival{h: h, data: data}
	}
	a := r.arrivalFree[n-1]
	r.arrivalFree = r.arrivalFree[:n-1]
	a.h, a.data = h, data
	return a
}

// keep copies an unexpected payload into the record's retained backing,
// growing it only when the payload is larger than any it held before.
func (a *arrival) keep(payload []byte) {
	if cap(a.buf) < len(payload) {
		a.buf = make([]byte, len(payload))
	}
	a.data = a.buf[:len(payload)]
	copy(a.data, payload)
}

// recycleArrival returns a consumed arrival to the free list. Callers
// must have copied the payload out first; dropping the data reference
// here lets the ring buffer (or copied-out slice) be reclaimed.
func (r *Rank) recycleArrival(a *arrival) {
	a.data = nil
	r.arrivalFree = append(r.arrivalFree, a)
}

// matchArrival pairs a posted receive with an unexpected arrival
// (eager payload or RTS). The arrival record is recycled on return:
// both arms copy what they need out of it before completing.
func (r *Rank) matchArrival(p *sim.Proc, req *Request, a *arrival) {
	defer r.recycleArrival(a)
	if !tagsMatch(req, a.h) {
		req.complete(p, ErrTagMismatch)
		return
	}
	r.m.matchLat.ObserveDuration(p.Now() - req.startT)
	switch a.h.kind {
	case pktEager:
		if a.h.payload > req.slice.N {
			req.complete(p, ErrTruncate)
			return
		}
		r.m.resolve(req, KindEager)
		copy(req.slice.Bytes(), a.data)
		p.Sleep(r.w.Plat.CopyCost(r.v.Loc(), a.h.payload))
		req.status = Status{Source: int(a.h.src), Tag: int(a.h.tag), Len: a.h.payload}
		req.complete(p, nil)
	case pktRTS:
		r.startRead(p, req, a.h)
	default:
		panic(fmt.Sprintf("core: arrival of kind %d cannot match a receive", a.h.kind))
	}
}

// startRead runs the sender-first protocol's receiver half: RDMA read
// from the advertised buffer, then DONE.
func (r *Rank) startRead(p *sim.Proc, req *Request, rts header) {
	// An RTR already sent for this receive means both sides started
	// the handshake at once: the simultaneous send/receive rendezvous.
	simul := req.state == stRTRWait
	if rts.rsize > req.slice.N {
		// Sender-rendezvous / receiver-eager mis-prediction: the send is
		// larger than the receive; the receiver issues an MPI error. A
		// NACK is still sent so the sender does not hang.
		req.complete(p, ErrTruncate)
		if err := r.ctrlSend(p, int(rts.src), header{kind: pktNack, seq: rts.seq}); err != nil {
			panic(err)
		}
		return
	}
	mr, err := r.mrCache.Get(p, req.slice.Buf.Dom, req.slice.Addr(), rts.rsize)
	if err != nil {
		req.complete(p, err)
		return
	}
	req.heldMRs = append(req.heldMRs, mr)
	req.peer = int(rts.src)
	req.status = Status{Source: int(rts.src), Tag: int(rts.tag), Len: rts.rsize}
	wr := r.newSendWR()
	wr.Opcode = ib.OpRDMARead
	wr.Remote = ib.RemoteAddr{Addr: rts.raddr, RKey: rts.rkey}
	wr.Signaled = true
	wr.SGL = append(wr.SGL, ib.SGE{Addr: req.slice.Addr(), Len: rts.rsize, LKey: mr.LKey})
	wrid := r.nextWR(wrAction{kind: wrRndvRead, req: req, peer: int(rts.src), wr: wr})
	wr.WRID = wrid
	req.state = stReading
	req.seq = rts.seq
	if simul {
		r.m.resolve(req, KindSimulRzv)
	} else {
		r.m.resolve(req, KindSenderRzv)
	}
	if r.m.reg != nil {
		req.xferSpan = req.span.Child(p.Now(), "rdma-read").AttrInt("bytes", int64(rts.rsize))
	}
	r.c.wrPost(p.Now(), int(rts.src), wrRndvRead, wrid, rts.rsize)
	r.trace("rdma-read", int(rts.src), rts.seq, rts.rsize)
	if err := r.post(p, int(rts.src), wr); err != nil {
		req.complete(p, err)
	}
}

// matchAnyAgainstUnexpected tries to satisfy the active ANY_SOURCE
// receive from already-arrived packets: the first packet whose sequence
// id is the next expected for its pair and whose tag matches.
func (r *Rank) matchAnyAgainstUnexpected(p *sim.Proc) {
	req := r.anyActive
	if req == nil {
		return
	}
	for src := 0; src < r.w.Size(); src++ {
		if src == r.id {
			continue
		}
		next := r.recvSeq[src]
		a, ok := r.unexpected[src][next]
		if !ok || !tagsMatch(req, a.h) {
			continue
		}
		delete(r.unexpected[src], next)
		r.recvSeq[src]++
		req.hasSeq = true
		req.seq = next
		r.anyActive = nil
		r.c.recvBindTo(p.Now(), req, src)
		r.matchArrival(p, req, a)
		r.drainDeferred(p)
		return
	}
}

// drainDeferred assigns sequence ids to receives that were blocked by
// the ANY_SOURCE lock, in posting order, stopping if another ANY_SOURCE
// receive re-locks.
func (r *Rank) drainDeferred(p *sim.Proc) {
	for len(r.deferred) > 0 && r.anyActive == nil {
		req := r.deferred[0]
		r.deferred = r.deferred[1:]
		if req.peer == AnySource {
			r.anyActive = req
			r.m.anyLocks.Inc()
			r.c.anyLock(p.Now(), req.cid)
			r.matchAnyAgainstUnexpected(p)
			return
		}
		r.bindRecv(p, req, req.peer)
	}
}

// ---- Self (loopback) messaging ----

func (r *Rank) selfSend(p *sim.Proc, req *Request) {
	r.Stats.SelfMsgs++
	seq := r.selfSendSeq
	r.selfSendSeq++
	if rr, ok := r.expRecv[r.id][seq]; ok {
		delete(r.expRecv[r.id], seq)
		r.deliverSelf(p, req, rr)
		return
	}
	a := r.newArrival(header{kind: pktEager, src: uint16(r.id), tag: int32(req.tag), seq: seq, payload: req.slice.N}, nil)
	a.keep(req.slice.Bytes())
	r.selfUnexpected[seq] = a
	req.complete(p, nil)
}

func (r *Rank) selfRecv(p *sim.Proc, req *Request) {
	seq := r.selfRecvSeq
	r.selfRecvSeq++
	req.seq = seq
	if a, ok := r.selfUnexpected[seq]; ok {
		delete(r.selfUnexpected, seq)
		defer r.recycleArrival(a)
		if !tagsMatch(req, a.h) {
			req.complete(p, ErrTagMismatch)
			return
		}
		if a.h.payload > req.slice.N {
			req.complete(p, ErrTruncate)
			return
		}
		copy(req.slice.Bytes(), a.data)
		p.Sleep(r.w.Plat.CopyCost(r.v.Loc(), a.h.payload))
		req.status = Status{Source: r.id, Tag: int(a.h.tag), Len: a.h.payload}
		req.complete(p, nil)
		return
	}
	r.expRecv[r.id][seq] = req
	req.state = stPosted
}

func (r *Rank) deliverSelf(p *sim.Proc, send, recv *Request) {
	if !tagsMatch(recv, header{tag: int32(send.tag)}) {
		send.complete(p, nil)
		recv.complete(p, ErrTagMismatch)
		return
	}
	if send.slice.N > recv.slice.N {
		send.complete(p, nil)
		recv.complete(p, ErrTruncate)
		return
	}
	copy(recv.slice.Bytes(), send.slice.Bytes())
	p.Sleep(r.w.Plat.CopyCost(r.v.Loc(), send.slice.N))
	recv.status = Status{Source: r.id, Tag: send.tag, Len: send.slice.N}
	send.complete(p, nil)
	recv.complete(p, nil)
}

// ---- Progress engine ----

// progress drives all protocol state: consumes ring packets, drains the
// CQ, returns credits and retries credit-starved sends. It reports
// whether any work was done.
func (r *Rank) progress(p *sim.Proc) bool {
	did := false
	// Ring packets, per peer, in order. Iterating the sorted active
	// list keeps the cost proportional to the rank's communication
	// degree rather than the world size — the property that makes
	// thousand-rank sparse workloads affordable.
	for _, i := range r.active {
		ps := r.peers[i]
		for {
			h, payload, ok := ps.in.peek()
			if !ok {
				break
			}
			if h.psn < ps.recvPSN {
				// A replayed write whose original copy was already
				// delivered (the fault hit after the data landed): drop
				// it without advancing the cursor, re-applying its
				// piggybacked credits, or returning the slot.
				ps.in.discard()
				r.Stats.ReplaysDeduped++
				r.m.replaysDeduped.Inc()
				r.c.replayDrop(p.Now(), i, h.psn)
				r.trace("replay-drop", i, h.psn, int(ps.recvPSN))
				did = true
				continue
			}
			if h.psn > ps.recvPSN {
				panic(fmt.Sprintf("core: rank %d: psn gap from %d: got %d want %d", r.id, i, h.psn, ps.recvPSN))
			}
			ps.recvPSN++
			p.Sleep(r.w.Plat.PollCost(r.v.Loc()) + r.v.RecvOverhead(h.payload))
			r.c.pktRecv(p.Now(), i, h)
			r.handlePacket(p, i, h, payload)
			ps.in.consume()
			ps.toReturn++
			did = true
		}
	}
	// Completions.
	for {
		n := r.cq.PollInto(p, r.cqeBuf[:])
		if n == 0 {
			break
		}
		for _, e := range r.cqeBuf[:n] {
			r.handleCQE(p, e)
		}
		did = true
	}
	// Reissue WRs that were formed while their QP sat in the error
	// state (between the fault and the CQE that triggers recovery);
	// recovery has reconnected the QP by the time the CQ drains.
	if r.faultsOn() {
		for _, i := range r.active {
			ps := r.peers[i]
			for len(ps.postponed) > 0 && ps.qp.State == ib.QPConnected {
				wrid := ps.postponed[0]
				ps.postponed = ps.postponed[1:]
				act := r.wrMap[wrid]
				if err := r.reissue(p, wrid, act); err != nil {
					delete(r.wrMap, wrid)
					r.failWR(p, act, err)
				}
				did = true
			}
		}
	}
	// Retry credit-starved control packets, then eager sends.
	for _, i := range r.active {
		ps := r.peers[i]
		for ps.credits > 1 && len(ps.pendingCtrl) > 0 {
			h := ps.pendingCtrl[0]
			ps.pendingCtrl = ps.pendingCtrl[1:]
			if err := r.sendPacket(p, i, h, nil, wrAction{kind: wrCtrl, peer: i}); err != nil {
				panic(err)
			}
			did = true
		}
		for ps.credits > 1 && len(ps.pendingSends) > 0 {
			req := ps.pendingSends[0]
			ps.pendingSends = ps.pendingSends[1:]
			h := header{kind: pktEager, tag: int32(req.tag), seq: req.seq}
			if err := r.sendPacket(p, i, h, req.slice.Bytes(), wrAction{kind: wrEager, req: req}); err != nil {
				req.complete(p, err)
				continue
			}
			req.state = stEagerSent
			did = true
		}
		// Explicit credit return only when the peer is about to starve:
		// normal bidirectional traffic returns credits by piggyback. One
		// ring slot per direction is reserved for these (data-class
		// packets stop at credits==1), so a starved pair always
		// unwedges: reaching credits==0 implies a credit packet is in
		// flight toward the peer.
		if ps.toReturn >= ps.out.slots-1 && ps.credits > 0 {
			h := header{kind: pktCredit, seq: 0}
			if err := r.sendPacket(p, i, h, nil, wrAction{kind: wrCtrl, peer: i}); err == nil {
				r.Stats.CreditPackets++
				r.trace("credit", i, 0, 0)
				did = true
			}
		}
	}
	return did
}

// handlePacket dispatches one ring packet.
func (r *Rank) handlePacket(p *sim.Proc, src int, h header, payload []byte) {
	ps := r.peers[src]
	ps.credits += int(h.credits)
	switch h.kind {
	case pktCredit:
		// Credits already applied.
	case pktEager, pktRTS:
		// Try the posted receive for this (pair, seq) first.
		if req, ok := r.expRecv[src][h.seq]; ok {
			delete(r.expRecv[src], h.seq)
			if h.kind == pktEager && req.state == stRTRWait {
				// Sender-eager / receiver-rendezvous mis-prediction: the
				// receiver recognizes it on the eager packet, copies the
				// data and completes; its earlier RTR will be dropped by
				// the sender thanks to the sequence id.
				r.m.mispredicts.Inc()
				r.c.mispredict(p.Now(), src, h.seq)
				r.matchArrival(p, req, r.newArrival(h, payload))
				return
			}
			r.matchArrival(p, req, r.newArrival(h, payload))
			return
		}
		// Then the ANY_SOURCE receive: it takes its sequence id from the
		// first matching packet.
		if r.anyActive != nil && h.seq == r.recvSeq[src] && tagsMatch(r.anyActive, h) {
			r.trace("any-source-match", src, h.seq, 0)
			req := r.anyActive
			r.anyActive = nil
			r.recvSeq[src]++
			req.seq = h.seq
			req.hasSeq = true
			r.c.recvBindTo(p.Now(), req, src)
			r.matchArrival(p, req, r.newArrival(h, payload))
			r.drainDeferred(p)
			return
		}
		// Unexpected: copy eager payloads out of the ring so the slot
		// can be recycled.
		a := r.newArrival(h, nil)
		if h.kind == pktEager && h.payload > 0 {
			a.keep(payload)
			p.Sleep(r.w.Plat.CopyCost(r.v.Loc(), h.payload))
		}
		r.unexpected[src][h.seq] = a
		r.Stats.Unexpected++
	case pktRTR:
		if req, ok := r.sendsBySeq[src][h.seq]; ok {
			switch req.state {
			case stRTSSent:
				// Simultaneous send/receive rendezvous: the sender
				// disregards the RTR and waits for the receiver's read.
				req.simul = true
				r.m.resolve(req, KindSimulRzv)
				r.trace("simultaneous-rtr-drop", src, h.seq, 0)
			case stEagerSent, stEagerQueued, stDone:
				// Sender-eager mis-prediction: drop the RTR; the
				// sequence id guarantees it belonged to this send only.
				r.m.mispredicts.Inc()
				r.c.mispredict(p.Now(), src, h.seq)
				r.trace("mispredict-rtr-drop", src, h.seq, 0)
			default:
				if err := r.rndvWrite(p, req, h); err != nil {
					req.complete(p, err)
				}
			}
			return
		}
		// RTR before the local Isend (receiver-first): stash it in the
		// outbound sequence space.
		r.earlyRTR[src][h.seq] = h
	case pktDone:
		req, ok := r.sendsBySeq[src][h.seq]
		if !ok {
			panic(fmt.Sprintf("core: rank %d: DONE from %d seq %d matches no send", r.id, src, h.seq))
		}
		delete(r.sendsBySeq[src], h.seq)
		// The DONE closes the rendezvous round trip begun at the
		// RTS; a dropped RTR already classified it simultaneous.
		if !req.simul {
			r.m.resolve(req, KindSenderRzv)
		}
		r.m.rndvRTT.ObserveDuration(p.Now() - req.startT)
		req.complete(p, nil)
	case pktDoneW:
		// Receiver-first: the sender's write plus this DONE completed a
		// receive that was parked in stRTRWait.
		req, ok := r.expRecv[src][h.seq]
		if !ok {
			panic(fmt.Sprintf("core: rank %d: DONE-W from %d seq %d matches no receive", r.id, src, h.seq))
		}
		delete(r.expRecv[src], h.seq)
		r.m.resolve(req, KindRecvRzv)
		req.status = Status{Source: src, Tag: req.tag, Len: h.rsize}
		req.complete(p, nil)
	case pktNack:
		req, ok := r.sendsBySeq[src][h.seq]
		if !ok {
			panic(fmt.Sprintf("core: rank %d: NACK from %d seq %d matches no send", r.id, src, h.seq))
		}
		delete(r.sendsBySeq[src], h.seq)
		req.complete(p, ErrTruncate)
	case pktNackW:
		req, ok := r.expRecv[src][h.seq]
		if !ok {
			panic(fmt.Sprintf("core: rank %d: NACK-W from %d seq %d matches no receive", r.id, src, h.seq))
		}
		delete(r.expRecv[src], h.seq)
		req.complete(p, ErrTruncate)
	default:
		panic(fmt.Sprintf("core: rank %d: unknown packet kind %d", r.id, h.kind))
	}
}

// handleCQE routes one completion.
func (r *Rank) handleCQE(p *sim.Proc, e ib.CQE) {
	act, ok := r.wrMap[e.WRID]
	if !ok {
		panic(fmt.Sprintf("core: rank %d: completion for unknown WR %d", r.id, e.WRID))
	}
	delete(r.wrMap, e.WRID)
	r.c.cqe(p.Now(), act.peer, act.kind, e.WRID)
	if e.Status != ib.StatusSuccess {
		if e.Status == ib.StatusRetryExcErr && r.faultsOn() {
			r.recoverWR(p, e.WRID, act)
			return
		}
		if act.req != nil {
			act.req.complete(p, fmt.Errorf("core: work request failed: %v", e.Status))
		}
		return
	}
	// The hardware is done with the WR (and any fault-mode packet
	// snapshot): return them to the pools. Under an active fault plan
	// the WR stays retained — recovery may still replay it.
	if act.wr != nil && !r.faultsOn() {
		r.recycleWR(act.wr)
	}
	if act.pkt != nil {
		r.recyclePkt(act.pkt)
	}
	switch act.kind {
	case wrEager:
		act.req.complete(p, nil)
	case wrCtrl:
		// Control packet delivered; nothing to do.
	case wrRndvWrite:
		// Receiver-first write done: tell the receiver.
		req := act.req
		req.xferSpan.End(p.Now())
		delete(r.sendsBySeq[req.peer], req.seq)
		done := header{kind: pktDoneW, seq: req.seq, rsize: req.slice.N}
		if err := r.ctrlSend(p, req.peer, done); err != nil {
			req.complete(p, err)
			return
		}
		req.complete(p, nil)
	case wrRndvRead:
		// Sender-first read done: tell the sender.
		req := act.req
		req.xferSpan.End(p.Now())
		done := header{kind: pktDone, seq: req.seq, rsize: req.status.Len}
		if err := r.ctrlSend(p, act.peer, done); err != nil {
			req.complete(p, err)
			return
		}
		req.complete(p, nil)
	}
}

// Wait blocks until the request completes, driving progress.
func (r *Rank) Wait(p *sim.Proc, req *Request) (Status, error) {
	waiting := false
	if !req.completed && r.c.on() {
		r.c.waitStart(p.Now(), req.cid)
		waiting = true
	}
	for !req.completed {
		if r.fatal != nil {
			// Transport recovery gave up on a control packet: protocol
			// progress is no longer guaranteed, so abort instead of
			// spinning into a deadlock. Completing the request here
			// closes its spans and releases its pins — without it, every
			// request in flight at the fatal error leaks an open span.
			req.complete(p, r.fatal)
			break
		}
		if !r.progress(p) {
			r.v.HCA().Doorbell.Wait(p)
		}
	}
	if waiting {
		r.c.waitEnd(p.Now(), req.cid)
	}
	return req.status, req.err
}

// WaitAll waits for every request; the first error wins.
func (r *Rank) WaitAll(p *sim.Proc, reqs ...*Request) error {
	var first error
	for _, q := range reqs {
		if _, err := r.Wait(p, q); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Test drives progress once and reports whether the request completed.
func (r *Rank) Test(p *sim.Proc, req *Request) bool {
	if !req.completed {
		r.progress(p)
	}
	return req.completed
}

// Send is the blocking send.
func (r *Rank) Send(p *sim.Proc, dst, tag int, s Slice) error {
	req, err := r.Isend(p, dst, tag, s)
	if err != nil {
		return err
	}
	_, err = r.Wait(p, req)
	return err
}

// Recv is the blocking receive.
func (r *Rank) Recv(p *sim.Proc, src, tag int, s Slice) (Status, error) {
	req, err := r.Irecv(p, src, tag, s)
	if err != nil {
		return Status{}, err
	}
	return r.Wait(p, req)
}

// Sendrecv runs a simultaneous blocking exchange.
func (r *Rank) Sendrecv(p *sim.Proc, dst, stag int, sbuf Slice, src, rtag int, rbuf Slice) (Status, error) {
	sreq, err := r.Isend(p, dst, stag, sbuf)
	if err != nil {
		return Status{}, err
	}
	rreq, err := r.Irecv(p, src, rtag, rbuf)
	if err != nil {
		// Drain the already-posted send before bailing out.
		return Status{}, errors.Join(err, r.WaitAll(p, sreq))
	}
	if _, err := r.Wait(p, sreq); err != nil {
		// Drain the already-posted receive before bailing out.
		return Status{}, errors.Join(err, r.WaitAll(p, rreq))
	}
	return r.Wait(p, rreq)
}
