package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/faults"
	"repro/internal/ib"
	"repro/internal/machine"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// peerState is everything a rank holds about one (me, peer) pair — the
// unit of §IV-B3: the pair's sequence ids and matching queues, and the
// endpoint (QP, eager rings, credits) its packets travel on. Loopback is
// the pair peers[r.id]: matching state only, no endpoint.
type peerState struct {
	// sendSeq numbers sends to the peer, recvSeq receives bound to it:
	// the k-th send pairs with the k-th bound receive.
	sendSeq uint64
	recvSeq uint64
	// expRecv[seq] is the posted receive expecting that packet.
	expRecv map[uint64]*Request
	// unexpected[seq] holds inbound data packets (eager payloads and RTS
	// announcements) with no matching receive yet, keyed by the peer→me
	// sequence space.
	unexpected map[uint64]*arrival
	// earlyRTR[seq] holds RTRs that arrived before their Isend, keyed by
	// the me→peer sequence space (receiver-first case). RTS and RTR
	// sequence ids live in opposite directed-pair spaces and must never
	// share a map.
	earlyRTR map[uint64]header
	// sendsBySeq[seq] routes RTR/DONE packets to in-flight sends.
	sendsBySeq map[uint64]*Request

	// qp is nil for loopback.
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
	pendingSends sim.FIFO[*Request]
	// pendingCtrl are control packets (RTS/RTR/DONE) waiting for ring
	// credit; drained before pendingSends.
	pendingCtrl sim.FIFO[header]

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
	postponed sim.FIFO[uint64]
	// r and id place the pair on r.ready; landed says bytes came through
	// qp since progress last found the ring empty.
	r      *Rank
	id     int
	landed bool
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

	pd *ib.PD
	cq *ib.CQ
	// faults is the adapter's fault injector, read once at setup: the
	// rank consults it for recovery policy (retry budget) on the
	// per-packet path, never for injection decisions.
	faults *faults.Injector
	// peers[i] is the pair (me, i), nil until the pair is wired (under
	// lazy connect, its first message); peers[id] is loopback.
	peers   []*peerState
	mrCache *MRCache
	arena   *offArena

	// active lists the peers with live endpoints, ascending: every peer
	// under eager connect, those met so far under lazy, never loopback.
	// ANY_SOURCE scans it in rank order; progress walks ready instead.
	active []int
	// ready lists, ascending, the pairs progress visits, sized by degree
	// like active; passes, marks and visits count progress calls,
	// landings and rings read.
	ready                 []int
	passes, marks, visits int64

	// cqeBuf is the persistent completion buffer progress drains into
	// (ibv-style PollInto), so the per-event CQ drain never allocates.
	cqeBuf [16]ib.CQE

	// ANY_SOURCE locking per §IV-B3.
	anyActive *Request
	deferred  sim.FIFO[*Request]

	// unwaited counts the requests Isend and Irecv returned that no
	// caller has seen complete; a rank must exit with none (leak.go).
	unwaited int

	// reqFree recycles the requests of blocking operations — Send, Recv,
	// Sendrecv and the collectives' internal exchanges — whose handle no
	// caller ever saw; see retire.
	reqFree sim.Pool[*Request]

	// arrivalFree recycles arrival records after their match, so
	// steady-state unexpected traffic allocates no record per packet.
	arrivalFree sim.Pool[*arrival]

	// wrFree recycles send work requests (and their cap-3 SGL backing)
	// once their completion has been routed, so the per-packet path
	// allocates no WR or SGE state in steady state. Recycling is
	// disabled under an active fault plan: replay needs the formed WR
	// to survive until its retry budget is spent.
	wrFree sim.Pool[*ib.SendWR]

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

	// rep is the rank's handle on the optional consumers of what it
	// reports (report.go).
	rep reporter

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

// Loc returns where the rank's MPI software executes: the kind of its
// memory domain.
func (r *Rank) Loc() machine.DomainKind { return r.v.Domain().Kind }

// MRCacheStats reports buffer-cache-pool hits and misses.
func (r *Rank) MRCacheStats() (hits, misses int64) {
	return r.mrCache.Hits, r.mrCache.Misses
}

// setup builds this rank's verbs resources (phase 1 of bootstrap).
func (r *Rank) setup(p *sim.Proc) error {
	cfg := r.w.Cfg
	r.faults = r.v.HCA().Faults()
	var err error
	if r.pd, err = r.v.AllocPD(p); err != nil {
		return err
	}
	if r.cq, err = r.v.CreateCQ(p, 1<<16); err != nil {
		return err
	}
	r.mrCache = NewMRCache(r.v, r.pd, cfg.MRCacheCap)
	r.rep = newReporter(cfg.Metrics, cfg.Causal, cfg.Trace, r.id)
	r.mrCache.instrument(cfg.Metrics, r.rep.actor)
	r.peers = make([]*peerState, r.w.Size())
	r.wrMap = make(map[uint64]wrAction)
	r.peers[r.id] = newPeerState()
	if !r.w.lazyConnect() {
		// Under lazy connect ensurePeer builds a pair at its first
		// message instead.
		for i := range r.peers {
			if i == r.id {
				continue
			}
			ps, err := r.makePeerHalf(p)
			if err != nil {
				return err
			}
			r.publish(i, ps)
		}
	}
	if d, ok := r.v.(DCFAVerbs); ok && cfg.Offload {
		if r.arena, err = newOffArena(p, d.MicVerbs, cfg.OffloadArena); err != nil {
			return err
		}
	}
	return nil
}

// connect wires QPs and ring descriptors against every peer (phase 2;
// the out-of-band bootstrap a process manager would provide).
func (r *Rank) connect(p *sim.Proc) error {
	for _, i := range r.active {
		peer := r.w.ranks[i]
		if len(peer.peers) <= r.id || peer.peers[r.id] == nil {
			// The peer's setup failed (possible under CMD-channel
			// faults); surface a typed bootstrap error, not a panic.
			return fmt.Errorf("core: rank %d has no endpoint for rank %d (peer setup failed)", i, r.id)
		}
		if err := r.peers[i].wire(peer, peer.peers[r.id]); err != nil {
			return err
		}
	}
	return nil
}

// newPeerState returns a pair's empty matching state: all loopback
// needs, and what makePeerHalf builds an endpoint on.
func newPeerState() *peerState {
	return &peerState{
		expRecv:    make(map[uint64]*Request),
		unexpected: make(map[uint64]*arrival),
		earlyRTR:   make(map[uint64]header),
		sendsBySeq: make(map[uint64]*Request),
	}
}

// makePeerHalf builds this rank's half of a pair: fresh matching state
// plus the endpoint (QP, eager ring, staging buffer). It neither wires
// the QP nor publishes the half; setup/connect (the eager bootstrap) or
// ensurePeer (lazy) do that. A half that cannot be completed keeps no
// registration.
func (r *Rank) makePeerHalf(p *sim.Proc) (*peerState, error) {
	cfg := r.w.Cfg
	dom := r.v.Domain()
	ps := newPeerState()
	var err error
	if ps.qp, err = r.v.CreateQP(p, r.pd, r.cq, r.cq); err != nil {
		return nil, err
	}
	ps.in, err = newRing(p, r.v, r.pd, dom, cfg.EagerSlots, cfg.EagerMax)
	if err != nil {
		return nil, err
	}
	ps.staging = dom.Reserve(slotBytes(cfg.EagerMax))
	ps.stagingMR, err = r.v.RegMR(p, r.pd, dom, ps.staging.Addr, len(ps.staging.Data))
	if err != nil {
		r.dropPeerHalf(p, ps)
		return nil, err
	}
	return ps, nil
}

// dropPeerHalf releases the registrations and buffers of a half that was
// never published (first contact failed on either side). It is
// best-effort: the error the caller reports is the one that failed the
// contact, not a deregistration that failed after it.
func (r *Rank) dropPeerHalf(p *sim.Proc, ps *peerState) {
	if ps.stagingMR != nil {
		_ = r.v.DeregMR(p, ps.stagingMR)
	}
	_ = r.v.DeregMR(p, ps.in.mr)
	r.v.Domain().Free(ps.staging)
	r.v.Domain().Free(ps.in.buf)
}

// wire connects this half's QP to the peer rank's half and adopts its
// ring as the send target, remembering the peer endpoint so fault
// recovery can reconnect after a QP reset.
func (ps *peerState) wire(peer *Rank, other *peerState) error {
	ps.rlid, ps.rqpn = peer.v.HCA().LID, other.qp.QPN
	if err := ps.qp.Connect(ps.rlid, ps.rqpn); err != nil {
		return err
	}
	ps.out = other.in.desc()
	ps.credits = ps.out.slots
	return nil
}

// publish enters a pair half in the peer table and the sorted active
// list, so ANY_SOURCE scans peers in rank order regardless of connection
// order (the property that keeps lazy-connect runs deterministic), and
// binds the QP's landing hook.
func (r *Rank) publish(i int, ps *peerState) {
	r.peers[i] = ps
	at, _ := slices.BinarySearch(r.active, i)
	r.active = slices.Insert(r.active, at, i)
	r.ready = slices.Grow(r.ready, len(r.active)-len(r.ready)) // marking never allocates
	ps.r, ps.id = r, i
	ps.qp.OnLand = ps.land
}

// land is the pair's QP.OnLand hook: the next progress pass reads its
// ring.
func (ps *peerState) land() {
	ps.landed = true
	ps.r.marks++
	ps.mark()
}

// mark puts the pair on its rank's ready list, as bytes landing through
// its QP and every push onto its pendingCtrl, pendingSends or postponed
// queue do.
func (ps *peerState) mark() {
	if at, ok := slices.BinarySearch(ps.r.ready, ps.id); !ok {
		ps.r.ready = slices.Insert(ps.r.ready, at, ps.id)
	}
}

// queued reports whether pair i holds packets or WRs waiting to go.
func (r *Rank) queued(i int) bool {
	ps := r.peers[i]
	return ps.pendingCtrl.Len() > 0 || ps.pendingSends.Len() > 0 || ps.postponed.Len() > 0
}

// nextReady returns the first ready pair after peer i, or -1: a pair
// marked behind the cursor waits for the next pass, as in a full walk.
func (r *Rank) nextReady(i int) int {
	if k, _ := slices.BinarySearch(r.ready, i+1); k < len(r.ready) {
		return r.ready[k]
	}
	return -1
}

// ensurePeer returns the pair (me, i), building and wiring BOTH halves
// on first use under lazy connect. The peer's resources are created in
// the caller's process context — the simulation's stand-in for the
// out-of-band connection establishment a process manager performs — so
// lazy bootstrap stays deterministic. Neither rank sees the pair until
// both halves are wired: a failure on either side leaves no half
// behind, so the next contact starts over instead of finding an
// unconnected endpoint that looks live.
func (r *Rank) ensurePeer(p *sim.Proc, i int) (*peerState, error) {
	key := [2]int{r.id, i}
	if i < r.id {
		key = [2]int{i, r.id}
	}
	for {
		if ps := r.peers[i]; ps != nil {
			return ps, nil
		}
		claim := r.w.connInFlight[key]
		if claim == nil {
			break
		}
		// The peer is mid-bootstrap toward us (mutual first contact —
		// e.g. a symmetric Sendrecv exchange): QP and ring creation
		// yield to the engine, so without this wait both sides would
		// build the pair and orphan each other's half. The claim
		// leaves the map before it is broadcast, so a rank that found
		// it here is already parked when it fires.
		claim.Wait(p)
	}
	claim := sim.NewSignal(r.w.Eng)
	r.w.connInFlight[key] = claim
	defer func() {
		delete(r.w.connInFlight, key)
		claim.Broadcast()
	}()
	peer := r.w.ranks[i]
	mine, err := r.makePeerHalf(p)
	if err != nil {
		return nil, err
	}
	theirs, err := peer.makePeerHalf(p)
	if err != nil {
		r.dropPeerHalf(p, mine)
		return nil, err
	}
	if err := errors.Join(mine.wire(peer, theirs), theirs.wire(r, mine)); err != nil {
		r.dropPeerHalf(p, mine)
		peer.dropPeerHalf(p, theirs)
		return nil, err
	}
	r.publish(i, mine)
	peer.publish(r.id, theirs)
	return mine, nil
}

// idle is one turn of every blocking wait: drive progress, and park on
// the HCA doorbell when there was nothing to do. It fails once transport
// recovery has given up on a control packet: protocol progress is no
// longer guaranteed, and waiting on would only ride to the deadlock
// detector.
func (r *Rank) idle(p *sim.Proc) error {
	if r.fatal != nil {
		return r.fatal
	}
	if !r.progress(p) {
		r.v.HCA().Doorbell.Wait(p)
	}
	return nil
}

// finalize drains queued outbound control packets and credit-starved
// sends before the rank exits (MPI_Finalize semantics): a DONE stuck
// behind ring flow control must still reach its peer or the peer hangs.
// Under a fault plan it also waits out the work requests still in
// flight, since only their poster replays one the fabric lost. After a
// fatal transport error the queued packets can never be delivered, so
// it gives up.
func (r *Rank) finalize(p *sim.Proc) {
	for slices.ContainsFunc(r.ready, r.queued) || (r.faultsOn() && len(r.wrMap) > 0) {
		if r.idle(p) != nil {
			return
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
func (r *Rank) faultsOn() bool { return r.faults.Enabled() }

// post issues wr on the QP toward peer dst. If the QP is not connected
// (errored by a fault, awaiting recovery), the fully-formed WR is
// postponed and reissued in order once recovery reconnects — without
// this, progress handling a ring packet between the error and the CQ
// poll could post into the errored QP and fail synchronously.
func (r *Rank) post(p *sim.Proc, dst int, wr *ib.SendWR) error {
	ps := r.peers[dst]
	if ps.qp.State != ib.QPConnected {
		ps.postponed.Push(wr.WRID)
		ps.mark()
		return nil
	}
	return r.v.PostSend(p, ps.qp, wr)
}

// reissue (re)posts the WR identified by act: packet WRs are restored
// from their retained byte snapshot into the staging buffer and
// rewritten to their original ring slot (same psn, no new credit);
// rendezvous WRs are reposted as formed, their buffers still pinned.
// A WR that cannot be reposted is given up on. Retransmission only runs
// after a fault: off the per-event budget.
func (r *Rank) reissue(p *sim.Proc, wrid uint64, act wrAction) {
	ps := r.peers[act.peer]
	wr := act.wr
	if act.kind == wrEager || act.kind == wrCtrl {
		copy(ps.staging.Data[:len(act.pkt)], act.pkt)
		wr = &ib.SendWR{
			WRID:     wrid,
			Opcode:   ib.OpRDMAWrite,
			SGL:      []ib.SGE{{Addr: ps.staging.Addr, Len: len(act.pkt), LKey: ps.stagingMR.LKey}},
			Remote:   ib.RemoteAddr{Addr: ps.out.slotAddr(act.slot), RKey: ps.out.rkey},
			Signaled: true,
			Inline:   true, // staging is rebuilt by the next packet
		}
	}
	if err := r.v.PostSend(p, ps.qp, wr); err != nil {
		delete(r.wrMap, wrid)
		r.failWR(p, act, err)
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
		r.step(p, stepQPReset, act.peer, 0, 0)
	}
	act.tries++
	if act.tries > r.faults.MaxRetries() {
		r.failWR(p, act, &TransportError{Peer: act.peer, Op: act.kind.String(), Tries: act.tries})
		return
	}
	r.wrMap[wrid] = act
	r.step(p, stepReplay, act.peer, wrid, act.tries)
	r.reissue(p, wrid, act)
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
	if wr, ok := r.wrFree.Get(); ok {
		return wr
	}
	return &ib.SendWR{SGL: make([]ib.SGE, 0, 3)}
}

// recycleWR returns a routed work request to the free list, keeping
// its SGL backing. Callers must only recycle WRs the transport cannot
// touch again (completion routed, no fault plan that could replay it).
func (r *Rank) recycleWR(wr *ib.SendWR) {
	if wr == nil {
		return
	}
	*wr = ib.SendWR{SGL: wr.SGL[:0]}
	r.wrFree.Put(wr)
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
		p.Sleep(r.w.Plat.CopyCost(r.Loc(), len(payload)))
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
		act.pkt = append([]byte(nil), s[:hdrSize+len(payload)+tailSize]...)
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
	r.packetSent(p, dst, h, act.kind, wrid)
	return r.post(p, dst, wr)
}

// ---- Point-to-point API ----

// Isend starts a nonblocking send of s to dst with tag.
func (r *Rank) Isend(p *sim.Proc, dst, tag int, s Slice) (*Request, error) {
	if dst < 0 || dst >= r.w.Size() {
		return nil, ErrBadRank
	}
	req := r.newRequest()
	*req = Request{r: r, isSend: true, peer: int32(dst), tag: int32(tag), slice: s}
	r.opened(p, req)
	p.Sleep(r.w.Plat.MPIPerMsg(r.Loc()))
	ps, err := r.ensurePeer(p, dst)
	if err != nil {
		return nil, r.abandon(p, req, err)
	}
	req.seq = ps.sendSeq
	ps.sendSeq++
	r.posted(p, req)
	req.owe()
	if dst == r.id {
		r.resolved(req, protoSelf)
		r.sendSelf(p, ps, req)
		return req, nil
	}
	// Drain arrived packets first: an RTR for this very sequence id may
	// already be waiting (receiver-first), which changes the protocol.
	r.progress(p)
	if s.N <= r.w.Cfg.EagerMax {
		r.resolved(req, protoEager)
		r.trySendEager(p, req)
		return req, nil
	}
	if err := r.startRendezvousSend(p, req); err != nil {
		// A post that failed is owed no wait: complete it here, which
		// releases whatever it pinned or staged.
		req.complete(p, err)
		req.seen()
		return req, err
	}
	return req, nil
}

// trySendEager posts the eager packet now or queues it for credit.
func (r *Rank) trySendEager(p *sim.Proc, req *Request) {
	// Sender-eager / receiver-rendezvous mis-prediction where the RTR
	// arrived before this send was even posted: drop it — the sequence
	// id guarantees it belonged to this send only.
	ps := r.peers[req.peer]
	if _, ok := ps.earlyRTR[req.seq]; ok {
		delete(ps.earlyRTR, req.seq)
		r.step(p, stepMispredictRTR, int(req.peer), req.seq, 0)
	}
	if ps.credits <= 1 {
		req.state = stEagerQueued
		ps.pendingSends.Push(req)
		ps.mark()
		return
	}
	r.postEager(p, req)
}

// postEager writes req's eager packet into the peer's ring, now or when
// progress finds credit for a queued send; the caller holds a
// data-class credit (credits > 1). A failed post completes the request
// with the error, and postEager reports false.
func (r *Rank) postEager(p *sim.Proc, req *Request) bool {
	h := header{kind: pktEager, tag: req.tag, seq: req.seq}
	if err := r.sendPacket(p, int(req.peer), h, req.slice.Bytes(), wrAction{kind: wrEager, req: req}); err != nil {
		req.complete(p, err)
		return false
	}
	req.state = stEagerSent
	r.step(p, stepEagerSend, int(req.peer), req.seq, req.slice.N)
	return true
}

// startRendezvousSend stages (or registers) the send buffer, then either
// answers an already-arrived RTR (receiver-first) or sends an RTS
// (sender-first).
func (r *Rank) startRendezvousSend(p *sim.Proc, req *Request) error {
	s := req.slice
	peer := int(req.peer)
	useOffload := r.arena != nil && s.N >= r.w.Cfg.OffloadMinSize
	if useOffload {
		if reg, ok := r.arena.alloc(s.N); ok {
			// sync_offload_mr: stage the latest data into the host
			// bounce buffer through the DMA engine before any send.
			err := r.staging(p, req, reg)
			switch {
			case err == nil:
				req.off, req.staged = int32(reg.off), true
			case errors.As(err, new(*pcie.DMAAbortError)):
				// The DMA engine aborted the staging copy: release the
				// region and fall back to sending straight from
				// co-processor memory.
				r.arena.release(reg)
				useOffload = false
				r.step(p, stepOffloadAbort, peer, req.seq, s.N)
			default:
				r.arena.release(reg)
				return err
			}
		} else {
			useOffload = false
			r.step(p, stepOffloadFull, peer, req.seq, s.N)
		}
	}
	if !useOffload {
		mr, err := r.mrCache.Get(p, s.Buf.Dom, s.Addr(), s.N)
		if err != nil {
			return err
		}
		req.pin(mr)
	}
	ps := r.peers[req.peer]
	ps.sendsBySeq[req.seq] = req

	// Receiver-first: an RTR for this sequence may already be here.
	if rtr, ok := ps.earlyRTR[req.seq]; ok {
		delete(ps.earlyRTR, req.seq)
		r.step(p, stepRecvFirst, peer, req.seq, 0)
		return r.rndvWrite(p, req, rtr)
	}
	// The RTS advertises the staged range's host address, else the send
	// buffer's own.
	h := header{kind: pktRTS, tag: req.tag, seq: req.seq, raddr: s.Addr(), rsize: s.N}
	if req.staged {
		h.raddr, h.rkey = r.arena.addr(int(req.off)), r.arena.omr.HostMR.RKey
	} else {
		h.rkey = req.pins[0].RKey
	}
	if err := r.ctrlSend(p, peer, h); err != nil {
		return err
	}
	req.state = stRTSSent
	r.step(p, stepRTSSend, peer, req.seq, s.N)
	return nil
}

// rndvWrite performs the receiver-first protocol's RDMA write into the
// buffer advertised by the RTR, followed by a DONE packet on completion.
func (r *Rank) rndvWrite(p *sim.Proc, req *Request, rtr header) error {
	if req.slice.N > rtr.rsize {
		// Receiver-first truncation: abort both sides.
		delete(r.peers[req.peer].sendsBySeq, req.seq)
		req.complete(p, ErrTruncate)
		return r.ctrlSend(p, int(req.peer), header{kind: pktNackW, seq: req.seq})
	}
	wr := r.newSendWR()
	wr.Opcode = ib.OpRDMAWrite
	wr.Remote = ib.RemoteAddr{Addr: rtr.raddr, RKey: rtr.rkey}
	wr.Signaled = true
	if req.staged {
		wr.SGL = append(wr.SGL, ib.SGE{Addr: r.arena.addr(int(req.off)), Len: req.slice.N, LKey: r.arena.omr.HostMR.LKey})
	} else {
		// Reuse the registration advertised with the RTS; it is pinned
		// until this request completes.
		wr.SGL = append(wr.SGL, ib.SGE{Addr: req.slice.Addr(), Len: req.slice.N, LKey: req.pins[0].LKey})
	}
	// The WR rides in the action for replay under faults and for
	// recycling on completion otherwise.
	wrid := r.nextWR(wrAction{kind: wrRndvWrite, req: req, peer: int(req.peer), wr: wr})
	wr.WRID = wrid
	req.state = stWriting
	r.resolved(req, protoRecvRzv)
	r.xferStarted(p, req, wrRndvWrite, wrid, req.slice.N)
	return r.post(p, int(req.peer), wr)
}

// ctrlSend transmits a zero-payload control packet (control packets
// share the eager rings); with no credit available it is queued and
// drained by progress. Sequence-id matching makes the resulting
// reordering harmless.
func (r *Rank) ctrlSend(p *sim.Proc, dst int, h header) error {
	ps := r.peers[dst]
	if ps.credits <= 1 || ps.pendingCtrl.Len() > 0 {
		ps.pendingCtrl.Push(h)
		ps.mark()
		return nil
	}
	return r.postCtrl(p, dst, h)
}

// postCtrl writes one zero-payload packet into the peer's ring; the
// caller holds a credit of the packet's class.
func (r *Rank) postCtrl(p *sim.Proc, dst int, h header) error {
	return r.sendPacket(p, dst, h, nil, wrAction{kind: wrCtrl})
}

// Irecv starts a nonblocking receive into s from src (or AnySource)
// with tag (or AnyTag). AnySource means any other rank: it never matches
// a message this rank sent to itself, which only a receive naming the
// rank's own id gets.
func (r *Rank) Irecv(p *sim.Proc, src, tag int, s Slice) (*Request, error) {
	if src != AnySource && (src < 0 || src >= r.w.Size()) {
		return nil, ErrBadRank
	}
	req := r.newRequest()
	*req = Request{r: r, peer: int32(src), tag: int32(tag), slice: s}
	r.opened(p, req)
	if src != AnySource {
		if _, err := r.ensurePeer(p, src); err != nil {
			return nil, r.abandon(p, req, err)
		}
	}
	req.owe()
	if src == r.id {
		// Nothing on the wire and no ANY_SOURCE receive can take a
		// loopback message, so neither progress nor the lock is in
		// the way of binding it now.
		r.resolved(req, protoSelf)
		r.bindRecv(p, req, src)
		return req, nil
	}
	// Drain arrived packets first: an RTS already in the ring turns a
	// would-be receiver-first handshake into a direct sender-first read.
	r.progress(p)
	switch {
	case r.anyActive != nil:
		// Locked: later receives cannot get a sequence id yet.
		r.deferred.Push(req)
		r.step(p, stepAnyDefer, src, req.cid, 0)
	case src == AnySource:
		r.lockAny(p, req)
	default:
		r.bindRecv(p, req, src)
	}
	return req, nil
}

// bindRecv assigns the next per-pair sequence id to a receive and
// matches it against unexpected arrivals, possibly sending an RTR.
func (r *Rank) bindRecv(p *sim.Proc, req *Request, src int) {
	ps := r.peers[src]
	req.peer = int32(src)
	req.seq = ps.recvSeq
	ps.recvSeq++
	if src != r.id {
		// A loopback message has no cross-rank lifecycle to report.
		r.bound(p, req, src)
	}
	if a, ok := ps.unexpected[req.seq]; ok {
		delete(ps.unexpected, req.seq)
		r.matchArrival(p, req, a)
		return
	}
	ps.expRecv[req.seq] = req
	req.state = stPosted
	if req.slice.N > r.w.Cfg.EagerMax && src != r.id {
		// Receiver-first rendezvous: advertise the receive buffer.
		// (Loopback has no sender to advertise to: sendSelf copies
		// straight out of the send buffer whatever the size.)
		mr, err := r.mrCache.Get(p, req.slice.Buf.Dom, req.slice.Addr(), req.slice.N)
		if err != nil {
			req.complete(p, err)
			delete(ps.expRecv, req.seq)
			return
		}
		req.pin(mr)
		h := header{kind: pktRTR, tag: req.tag, seq: req.seq, raddr: req.slice.Addr(), rkey: mr.RKey, rsize: req.slice.N}
		if err := r.ctrlSend(p, src, h); err != nil {
			req.complete(p, err)
			delete(ps.expRecv, req.seq)
			return
		}
		req.state = stRTRWait
		r.step(p, stepRTRSend, src, req.seq, req.slice.N)
	}
}

// tagsMatch applies MPI tag-matching rules between the tag a receive or
// probe asked for and a packet header.
func tagsMatch(tag int, h header) bool {
	return tag == AnyTag || int32(tag) == h.tag
}

// probe returns the one arrival the next receive bound to this pair can
// match — the unexpected packet carrying the pair's next sequence id —
// if it is here and its tag matches. A nil pair (lazy connect, not yet
// wired) has no arrivals.
func (ps *peerState) probe(tag int) *arrival {
	if ps == nil {
		return nil
	}
	if a, ok := ps.unexpected[ps.recvSeq]; ok && tagsMatch(tag, a.h) {
		return a
	}
	return nil
}

// newArrival hands out a pooled arrival record. handlePacket builds one
// per inbound data packet, so an unpooled record would be a per-event
// heap allocation on the progress path.
func (r *Rank) newArrival(h header, data []byte) *arrival {
	a, ok := r.arrivalFree.Get()
	if !ok {
		a = &arrival{}
	}
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
	r.arrivalFree.Put(a)
}

// matchArrival pairs a posted receive with an unexpected arrival
// (eager payload or RTS). The arrival record is recycled on return:
// both arms copy what they need out of it before completing.
func (r *Rank) matchArrival(p *sim.Proc, req *Request, a *arrival) {
	defer r.recycleArrival(a)
	if !tagsMatch(int(req.tag), a.h) {
		req.complete(p, ErrTagMismatch)
		return
	}
	r.matched(p, req)
	switch a.h.kind {
	case pktEager:
		if a.h.payload > req.slice.N {
			req.complete(p, ErrTruncate)
			return
		}
		if int(req.peer) != r.id {
			// A loopback receive resolved as self when posted.
			r.resolved(req, protoEager)
		}
		copy(req.slice.Bytes(), a.data)
		p.Sleep(r.w.Plat.CopyCost(r.Loc(), a.h.payload))
		req.status = status{src: int32(a.h.src), tag: a.h.tag, n: int32(a.h.payload)}
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
	req.pin(mr)
	req.peer = int32(rts.src)
	req.status = status{src: int32(rts.src), tag: rts.tag, n: int32(rts.rsize)}
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
		r.resolved(req, protoSimulRzv)
	} else {
		r.resolved(req, protoSenderRzv)
	}
	r.xferStarted(p, req, wrRndvRead, wrid, rts.rsize)
	if err := r.post(p, int(rts.src), wr); err != nil {
		req.complete(p, err)
	}
}

// lockAny makes req the active ANY_SOURCE receive — §IV-B3: it locks
// sequence assignment for all later receives until it finds its match —
// and tries to satisfy it from packets already here: the first
// connected pair, in rank order, whose next packet matches the tag.
func (r *Rank) lockAny(p *sim.Proc, req *Request) {
	r.anyActive = req
	r.step(p, stepAnyLock, AnySource, req.cid, 0)
	for _, src := range r.active {
		ps := r.peers[src]
		if a := ps.probe(int(req.tag)); a != nil {
			delete(ps.unexpected, ps.recvSeq)
			r.bindAny(p, src, a)
			return
		}
	}
}

// bindAny gives the active ANY_SOURCE receive pair src's next sequence
// id — the one arrival a carries — and releases the lock.
func (r *Rank) bindAny(p *sim.Proc, src int, a *arrival) {
	req := r.anyActive
	r.anyActive = nil
	r.peers[src].recvSeq++
	req.seq = a.h.seq
	r.bound(p, req, src)
	r.matchArrival(p, req, a)
	r.drainDeferred(p)
}

// drainDeferred assigns sequence ids to receives that were blocked by
// the ANY_SOURCE lock, in posting order, stopping if another ANY_SOURCE
// receive re-locks.
func (r *Rank) drainDeferred(p *sim.Proc) {
	for r.deferred.Len() > 0 && r.anyActive == nil {
		req := r.deferred.Pop()
		if req.peer == AnySource {
			r.lockAny(p, req)
		} else {
			r.bindRecv(p, req, int(req.peer))
		}
	}
}

// sendSelf delivers a loopback send. There is no wire, so the packet the
// peer would have received goes straight to the pair's matching state:
// to the receive posted for its sequence id, else to the unexpected
// queue, where bindRecv and Iprobe find it like any other arrival.
func (r *Rank) sendSelf(p *sim.Proc, ps *peerState, req *Request) {
	r.step(p, stepSelfMsg, r.id, req.seq, req.slice.N)
	h := header{kind: pktEager, src: uint16(r.id), tag: req.tag, seq: req.seq, payload: req.slice.N}
	if recv, ok := ps.expRecv[req.seq]; ok {
		delete(ps.expRecv, req.seq)
		r.matchArrival(p, recv, r.newArrival(h, req.slice.Bytes()))
	} else {
		a := r.newArrival(h, nil)
		a.keep(req.slice.Bytes())
		ps.unexpected[req.seq] = a
	}
	req.complete(p, nil)
}

// ---- Progress engine ----

// progress drives all protocol state: consumes ring packets, drains the
// CQ, returns credits and retries credit-starved sends. It reports
// whether any work was done. It visits the ready pairs only, in peer
// order: any other pair would do nothing, since only a consumed packet
// raises a pair's credits or its count of slots to return.
func (r *Rank) progress(p *sim.Proc) bool {
	did := false
	r.passes++
	// Ring packets of the pairs bytes landed for.
	for i := r.nextReady(-1); i >= 0; i = r.nextReady(i) {
		ps := r.peers[i]
		if !ps.landed {
			continue
		}
		r.visits++
		for {
			h, payload, ok := ps.in.peek()
			if !ok {
				ps.landed = false
				break
			}
			if h.psn < ps.recvPSN {
				// A replayed write whose original copy was already
				// delivered (the fault hit after the data landed): drop
				// it without advancing the cursor, re-applying its
				// piggybacked credits, or returning the slot.
				ps.in.discard(h.payload)
				r.step(p, stepReplayDrop, i, h.psn, int(ps.recvPSN))
				did = true
				continue
			}
			if h.psn > ps.recvPSN {
				panic(fmt.Sprintf("core: rank %d: psn gap from %d: got %d want %d", r.id, i, h.psn, ps.recvPSN))
			}
			ps.recvPSN++
			p.Sleep(r.w.Plat.PollCost(r.Loc()) + r.v.RecvOverhead(h.payload))
			r.packetRecvd(p, i, h)
			r.handlePacket(p, i, h, payload)
			ps.in.consume(h.payload)
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
		for i := r.nextReady(-1); i >= 0; i = r.nextReady(i) {
			ps := r.peers[i]
			for ps.postponed.Len() > 0 && ps.qp.State == ib.QPConnected {
				wrid := ps.postponed.Pop()
				r.reissue(p, wrid, r.wrMap[wrid])
				did = true
			}
		}
	}
	// Retry credit-starved control packets, then eager sends.
	for i := r.nextReady(-1); i >= 0; i = r.nextReady(i) {
		ps := r.peers[i]
		for ps.credits > 1 && ps.pendingCtrl.Len() > 0 {
			if err := r.postCtrl(p, i, ps.pendingCtrl.Pop()); err != nil {
				panic(err)
			}
			did = true
		}
		for ps.credits > 1 && ps.pendingSends.Len() > 0 {
			if r.postEager(p, ps.pendingSends.Pop()) {
				did = true
			}
		}
		// Explicit credit return only when the peer is about to starve:
		// normal bidirectional traffic returns credits by piggyback. One
		// ring slot per direction is reserved for these (data-class
		// packets stop at credits==1), so a starved pair always
		// unwedges: reaching credits==0 implies a credit packet is in
		// flight toward the peer.
		if ps.toReturn >= ps.out.slots-1 && ps.credits > 0 {
			if err := r.postCtrl(p, i, header{kind: pktCredit}); err == nil {
				r.step(p, stepCredit, i, 0, 0)
				did = true
			}
		}
	}
	// Unmark the pairs left with nothing landed and nothing queued.
	keep := r.ready[:0]
	for _, i := range r.ready {
		if r.peers[i].landed || r.queued(i) {
			keep = append(keep, i)
		}
	}
	r.ready = keep
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
		if req, ok := ps.expRecv[h.seq]; ok {
			delete(ps.expRecv, h.seq)
			if h.kind == pktEager && req.state == stRTRWait {
				// Sender-eager / receiver-rendezvous mis-prediction: the
				// receiver recognizes it on the eager packet, copies the
				// data and completes; its earlier RTR will be dropped by
				// the sender thanks to the sequence id.
				r.step(p, stepMispredictEager, src, h.seq, h.payload)
			}
			r.matchArrival(p, req, r.newArrival(h, payload))
			return
		}
		// Then the ANY_SOURCE receive: it takes its sequence id from the
		// first matching packet.
		if r.anyActive != nil && h.seq == ps.recvSeq && tagsMatch(int(r.anyActive.tag), h) {
			r.step(p, stepAnyMatch, src, h.seq, 0)
			r.bindAny(p, src, r.newArrival(h, payload))
			return
		}
		// Unexpected: copy eager payloads out of the ring so the slot
		// can be recycled.
		a := r.newArrival(h, nil)
		if h.kind == pktEager && h.payload > 0 {
			a.keep(payload)
			p.Sleep(r.w.Plat.CopyCost(r.Loc(), h.payload))
		}
		ps.unexpected[h.seq] = a
		r.step(p, stepUnexpected, src, h.seq, h.payload)
	case pktRTR:
		if req, ok := ps.sendsBySeq[h.seq]; ok {
			switch req.state {
			case stRTSSent:
				// Simultaneous send/receive rendezvous: the sender
				// disregards the RTR and waits for the receiver's read.
				r.resolved(req, protoSimulRzv)
				r.step(p, stepSimulDrop, src, h.seq, 0)
			case stEagerSent, stEagerQueued, stDone:
				// Sender-eager mis-prediction: drop the RTR; the
				// sequence id guarantees it belonged to this send only.
				r.step(p, stepMispredictRTR, src, h.seq, 0)
			default:
				if err := r.rndvWrite(p, req, h); err != nil {
					req.complete(p, err)
				}
			}
			return
		}
		// RTR before the local Isend (receiver-first): stash it in the
		// outbound sequence space.
		ps.earlyRTR[h.seq] = h
	case pktDone:
		req := r.take(ps.sendsBySeq, src, h)
		// The DONE closes the rendezvous round trip begun at the
		// RTS; a dropped RTR already classified it simultaneous.
		if req.proto != protoSimulRzv {
			r.resolved(req, protoSenderRzv)
		}
		req.complete(p, nil)
	case pktDoneW:
		// Receiver-first: the sender's write plus this DONE completed a
		// receive that was parked in stRTRWait.
		req := r.take(ps.expRecv, src, h)
		r.resolved(req, protoRecvRzv)
		req.status = status{src: int32(src), tag: req.tag, n: int32(h.rsize)}
		req.complete(p, nil)
	case pktNack:
		r.take(ps.sendsBySeq, src, h).complete(p, ErrTruncate)
	case pktNackW:
		r.take(ps.expRecv, src, h).complete(p, ErrTruncate)
	default:
		panic(fmt.Sprintf("core: rank %d: unknown packet kind %d", r.id, h.kind))
	}
}

// take removes from m and returns the request a closing packet (DONE,
// NACK and their receiver-first forms) names. The sequence id guarantees
// there is one, so a miss is a protocol bug.
func (r *Rank) take(m map[uint64]*Request, src int, h header) *Request {
	req, ok := m[h.seq]
	if !ok {
		panic(fmt.Sprintf("core: rank %d: packet kind %d from %d seq %d closes no request", r.id, h.kind, src, h.seq))
	}
	delete(m, h.seq)
	return req
}

// handleCQE routes one completion.
func (r *Rank) handleCQE(p *sim.Proc, e ib.CQE) {
	act, ok := r.wrMap[e.WRID]
	if !ok {
		panic(fmt.Sprintf("core: rank %d: completion for unknown WR %d", r.id, e.WRID))
	}
	delete(r.wrMap, e.WRID)
	r.cqe(p, act, e.WRID)
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
	// The hardware is done with the WR: return it to the pool. Under an
	// active fault plan the WR stays retained — recovery may still
	// replay it.
	if act.wr != nil && !r.faultsOn() {
		r.recycleWR(act.wr)
	}
	switch act.kind {
	case wrEager:
		act.req.complete(p, nil)
	case wrCtrl:
		// Control packet delivered; nothing to do.
	case wrRndvWrite:
		// Receiver-first write done: tell the receiver.
		req := act.req
		r.xferDone(p, req)
		delete(r.peers[req.peer].sendsBySeq, req.seq)
		done := header{kind: pktDoneW, seq: req.seq, rsize: req.slice.N}
		req.complete(p, r.ctrlSend(p, int(req.peer), done))
	case wrRndvRead:
		// Sender-first read done: tell the sender.
		req := act.req
		r.xferDone(p, req)
		done := header{kind: pktDone, seq: req.seq, rsize: int(req.status.n)}
		req.complete(p, r.ctrlSend(p, act.peer, done))
	}
}

// Wait blocks until the request completes, driving progress.
func (r *Rank) Wait(p *sim.Proc, req *Request) (Status, error) {
	if req.completed {
		req.seen()
		return req.Status(), req.err
	}
	r.waitStart(p, req)
	for !req.completed {
		if err := r.idle(p); err != nil {
			// Completing the request here closes its spans and releases
			// its pins — without it, every request in flight at the
			// fatal error leaks an open span.
			req.complete(p, err)
		}
	}
	r.waitEnd(p, req)
	req.seen()
	return req.Status(), req.err
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
	if req.completed {
		req.seen()
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
	r.retire(req)
	return err
}

// Recv is the blocking receive.
func (r *Rank) Recv(p *sim.Proc, src, tag int, s Slice) (Status, error) {
	req, err := r.Irecv(p, src, tag, s)
	if err != nil {
		return Status{}, err
	}
	st, err := r.Wait(p, req)
	r.retire(req)
	return st, err
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
		err = errors.Join(err, r.WaitAll(p, sreq))
		r.retire(sreq)
		return Status{}, err
	}
	if _, err := r.Wait(p, sreq); err != nil {
		// Drain the already-posted receive before bailing out.
		err = errors.Join(err, r.WaitAll(p, rreq))
		r.retire(rreq)
		return Status{}, err
	}
	st, err := r.Wait(p, rreq)
	r.retire(sreq, rreq)
	return st, err
}
