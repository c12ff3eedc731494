package core

import (
	"cmp"
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
// endpoint its packets travel on: its QP and inbound eager ring (all it
// owns), the peer ring's descriptor and credits. Loopback is the pair
// r.self: matching state only, no endpoint.
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
	// earlyRTR[seq] holds RTRs that arrived before their Isend chose a
	// protocol, keyed by the me→peer sequence space (receiver-first
	// case). RTS and RTR sequence ids live in opposite directed-pair
	// spaces and must never share a map.
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
	// r is the rank holding the pair and id its peer; landed says bytes
	// came through qp since progress last found the ring empty.
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
	// FlushReposts counts WRs reposted after their QP's error flushed
	// them, apart from Retries, the replays of faulted WRs.
	Retries        int64
	QPResets       int64
	ReplaysDeduped int64
	FlushReposts   int64
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
	faults  *faults.Injector
	mrCache *MRCache
	arena   *offArena

	// slot is the rank's one pre-registered packet-assembly buffer
	// (header + payload + tail): stage writes every outbound ring packet
	// there, and its WR takes the bytes at post time, so the next packet
	// to any peer may be assembled in it at once.
	slot   *machine.Buffer
	slotMR *ib.MR

	// self is the loopback pair (me, me).
	self *peerState
	// pairs lists the wired pairs ascending by peer, sized by degree:
	// every peer under eager connect, those met so far under lazy, never
	// loopback. ANY_SOURCE scans it in rank order; progress walks ready
	// instead. Rank.pair is the one lookup by rank.
	pairs []*peerState
	// ready lists, ascending by peer, the pairs progress visits;
	// passes, marks and visits count progress calls, landings and rings
	// read.
	ready                 []*peerState
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

	// arrivalFree recycles the records of packets that waited for their
	// receive once it has taken them, so steady-state unexpected traffic
	// allocates no record per packet.
	arrivalFree sim.Pool[*arrival]

	// wrFree recycles posted work requests (and their cap-3 SGL
	// backing) once their completion has been routed, so the per-packet
	// path allocates no WR or SGE state in steady state. Only a
	// successful completion recycles one: replay reposts the formed WR
	// until its retry budget is spent.
	wrFree sim.Pool[*postedWR]

	// wrSeq numbers the posted WRs; wrMap holds each by its WR id until
	// its completion.
	wrSeq uint64
	wrMap map[uint64]*postedWR

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
	r.wrMap = make(map[uint64]*postedWR)
	r.self = newPeerState(r, r.id)
	if !r.w.lazyConnect() {
		// Under lazy connect ensurePeer builds a pair at its first
		// message instead.
		for i := range r.w.Size() {
			if i == r.id {
				continue
			}
			ps, err := r.makePeerHalf(p, i)
			if err != nil {
				return err
			}
			r.publish(ps)
		}
	}
	r.slot = r.v.Domain().Reserve(slotBytes(cfg.EagerMax))
	if r.slotMR, err = r.v.RegMR(p, r.pd, r.v.Domain(), r.slot.Addr, len(r.slot.Data)); err != nil {
		return err
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
	for _, ps := range r.pairs {
		peer := r.w.ranks[ps.id]
		other := peer.pair(r.id)
		if other == nil {
			// The peer's setup failed (possible under CMD-channel
			// faults); surface a typed bootstrap error, not a panic.
			return fmt.Errorf("core: rank %d has no endpoint for rank %d (peer setup failed)", ps.id, r.id)
		}
		if err := ps.wire(peer, other); err != nil {
			return err
		}
	}
	return nil
}

// newPeerState returns rank r's empty matching state for the pair with
// peer id: all loopback needs, and what makePeerHalf builds an endpoint
// on.
func newPeerState(r *Rank, id int) *peerState {
	return &peerState{
		r:          r,
		id:         id,
		expRecv:    make(map[uint64]*Request),
		unexpected: make(map[uint64]*arrival),
		earlyRTR:   make(map[uint64]header),
		sendsBySeq: make(map[uint64]*Request),
	}
}

// makePeerHalf builds this rank's half of the pair with peer i: fresh
// matching state plus the endpoint (QP and inbound eager ring, its one
// registration). It neither wires the QP nor publishes the half;
// setup/connect (the eager bootstrap) or ensurePeer (lazy) do that. A
// half whose ring cannot be registered has registered nothing.
func (r *Rank) makePeerHalf(p *sim.Proc, i int) (*peerState, error) {
	cfg := r.w.Cfg
	ps := newPeerState(r, i)
	var err error
	if ps.qp, err = r.v.CreateQP(p, r.pd, r.cq, r.cq); err != nil {
		return nil, err
	}
	if ps.in, err = newRing(p, r.v, r.pd, r.v.Domain(), cfg.EagerSlots, cfg.EagerMax); err != nil {
		return nil, err
	}
	return ps, nil
}

// dropPeerHalf releases the ring of a half that was never published
// (first contact failed on either side). It is best-effort: the error
// the caller reports is the one that failed the contact, not a
// deregistration that failed after it.
func (r *Rank) dropPeerHalf(p *sim.Proc, ps *peerState) {
	_ = r.v.DeregMR(p, ps.in.mr)
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

// publish enters a pair half in the sorted pair table, so ANY_SOURCE
// scans peers in rank order regardless of connection order (the property
// that keeps lazy-connect runs deterministic), and binds the QP's
// landing hook.
func (r *Rank) publish(ps *peerState) {
	at, _ := slices.BinarySearchFunc(r.pairs, ps.id, byPeer)
	r.pairs = slices.Insert(r.pairs, at, ps)
	r.ready = slices.Grow(r.ready, len(r.pairs)-len(r.ready)) // marking never allocates
	ps.qp.OnLand = ps.land
}

// pair returns the pair (me, i): loopback, a wired pair, or nil before
// the pair's first contact. Only calls that name a rank look one up;
// below them the *peerState travels.
func (r *Rank) pair(i int) *peerState {
	if i == r.id {
		return r.self
	}
	if k, ok := slices.BinarySearchFunc(r.pairs, i, byPeer); ok {
		return r.pairs[k]
	}
	return nil
}

// byPeer orders pairs by peer id, for the searches over pairs and ready.
func byPeer(ps *peerState, i int) int { return cmp.Compare(ps.id, i) }

// land is the pair's QP.OnLand hook: the next progress pass reads its
// ring.
func (ps *peerState) land() {
	ps.landed = true
	ps.r.marks++
	ps.mark()
}

// mark puts the pair on its rank's ready list, as bytes landing through
// its QP and every push onto its pendingCtrl or pendingSends queue do.
func (ps *peerState) mark() {
	if at, ok := slices.BinarySearchFunc(ps.r.ready, ps.id, byPeer); !ok {
		ps.r.ready = slices.Insert(ps.r.ready, at, ps)
	}
}

// queued reports whether the pair holds packets or WRs waiting to go.
func (ps *peerState) queued() bool {
	return ps.pendingCtrl.Len() > 0 || ps.pendingSends.Len() > 0
}

// nextReady returns the first ready pair after peer i, or nil: a pair
// marked behind the cursor waits for the next pass, as in a full walk.
func (r *Rank) nextReady(i int) *peerState {
	if k, _ := slices.BinarySearchFunc(r.ready, i+1, byPeer); k < len(r.ready) {
		return r.ready[k]
	}
	return nil
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
		if ps := r.pair(i); ps != nil {
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
	claim := new(sim.Signal)
	r.w.connInFlight[key] = claim
	defer func() {
		delete(r.w.connInFlight, key)
		claim.Broadcast()
	}()
	peer := r.w.ranks[i]
	mine, err := r.makePeerHalf(p, i)
	if err != nil {
		return nil, err
	}
	theirs, err := peer.makePeerHalf(p, r.id)
	if err != nil {
		r.dropPeerHalf(p, mine)
		return nil, err
	}
	if err := errors.Join(mine.wire(peer, theirs), theirs.wire(r, mine)); err != nil {
		r.dropPeerHalf(p, mine)
		peer.dropPeerHalf(p, theirs)
		return nil, err
	}
	r.publish(mine)
	peer.publish(theirs)
	return mine, nil
}

// idle is one turn of every blocking wait: drive progress, and park on
// the rank's own CQ when there was nothing to do — a completion or bytes
// landing through one of its QPs wakes it, traffic of other ranks behind
// the adapter does not. It fails once transport recovery has given up on
// a control packet: protocol progress is no longer guaranteed, and
// waiting on would only ride to the deadlock detector.
func (r *Rank) idle(p *sim.Proc) error {
	if r.fatal != nil {
		return r.fatal
	}
	if !r.progress(p) {
		r.cq.Notify.Wait(p)
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
	for slices.ContainsFunc(r.ready, (*peerState).queued) || (r.faultsOn() && len(r.wrMap) > 0) {
		if r.idle(p) != nil {
			return
		}
	}
}

// nextWR gives w the next work-request id and registers it for its
// completion.
func (r *Rank) nextWR(w *postedWR) {
	r.wrSeq++
	w.WRID = r.wrSeq
	r.wrMap[r.wrSeq] = w
}

// faultsOn reports whether a fault plan with any nonzero rate is
// installed (the recovery paths are compiled out of the hot path
// behind this check).
func (r *Rank) faultsOn() bool { return r.faults.Enabled() }

// post is the one place a WR reaches the provider. A QP a fault has
// errored accepts the WR and flushes it, so a post between the error and
// the completion that starts recovery comes back as a completion too.
func (r *Rank) post(p *sim.Proc, w *postedWR) error {
	return r.v.PostSend(p, w.ps.qp, &w.SendWR)
}

// reissue reposts w as it was formed: a packet WR is first restaged from
// its header and its request's payload, so it rewrites the same bytes
// (same psn, no new credit) to its original ring slot; a rendezvous WR's
// buffers are still pinned. A WR that cannot be reposted is given up on.
// Retransmission only runs after a fault: off the per-event budget.
func (r *Rank) reissue(p *sim.Proc, w *postedWR) {
	switch {
	case w.req != nil && w.req.completed:
		// Wait completed it under a fatal error; its buffers are the caller's.
		delete(r.wrMap, w.WRID)
		return
	case w.kind == wrEager:
		r.stage(w.h, w.req.slice.Bytes())
	case w.kind == wrCtrl:
		r.stage(w.h, nil)
	}
	if err := r.post(p, w); err != nil {
		delete(r.wrMap, w.WRID)
		r.failWR(p, w, err)
	}
}

// recoverWR handles an error completion under a fault plan: the first
// one resets and reconnects the errored QP. A WR its QP's error flushed
// is reposted as it was; a faulted one (retry exhaustion) is replayed
// until the plan's budget runs out, at which point the owning request
// (or the rank, for control packets) fails with a typed TransportError.
// Recovery only runs after an error: off the per-event budget.
func (r *Rank) recoverWR(p *sim.Proc, w *postedWR, st ib.Status) {
	ps := w.ps
	if ps.qp.State == ib.QPError {
		ps.qp.Reset()
		if err := ps.qp.Connect(ps.rlid, ps.rqpn); err != nil {
			r.failWR(p, w, fmt.Errorf("core: reconnect to rank %d: %w", ps.id, err))
			return
		}
		r.step(p, stepQPReset, ps.id, 0, 0)
	}
	if st == ib.StatusWRFlushErr {
		r.step(p, stepFlushRepost, ps.id, w.WRID, w.tries)
	} else {
		w.tries++
		if w.tries > r.faults.MaxRetries() {
			r.failWR(p, w, &TransportError{Peer: ps.id, Op: w.kind.String(), Tries: w.tries})
			return
		}
		r.step(p, stepReplay, ps.id, w.WRID, w.tries)
	}
	r.wrMap[w.WRID] = w
	r.reissue(p, w)
}

// failWR gives up on a work request: requests complete with the error;
// ownerless control packets poison the rank instead, because a lost
// RTS/RTR/DONE breaks the protocol for an unknowable set of requests.
func (r *Rank) failWR(p *sim.Proc, w *postedWR, err error) {
	if w.req != nil {
		w.req.complete(p, err)
		return
	}
	if r.fatal == nil {
		r.fatal = err
	}
}

// newSendWR hands out a pooled work request of the given kind, for req
// (nil for a control packet) on pair ps, with SGL capacity for the
// three-element packet layout (header, payload, tail). handleCQE
// recycles each WR at its successful completion, so the per-packet path
// allocates no WR or SGE state in steady state.
func (r *Rank) newSendWR(kind wrKind, req *Request, ps *peerState) *postedWR {
	w, ok := r.wrFree.Get()
	if !ok {
		w = &postedWR{SendWR: ib.SendWR{SGL: make([]ib.SGE, 0, 3)}}
	}
	w.kind, w.req, w.ps = kind, req, ps
	return w
}

// recycleWR returns a routed work request to the free list, keeping
// its SGL backing. Callers must only recycle WRs the transport cannot
// touch again: a WR gets one completion per post, and only an error
// completion replays it.
func (r *Rank) recycleWR(w *postedWR) {
	*w = postedWR{SendWR: ib.SendWR{SGL: w.SGL[:0]}}
	r.wrFree.Put(w)
}

// sendPacket assembles and RDMA-writes one packet into the pair's ring.
// The caller must hold a credit (credits > 0). Consumed local slots are
// piggybacked back as credits on every outgoing header.
func (r *Rank) sendPacket(p *sim.Proc, ps *peerState, h header, payload []byte, kind wrKind, req *Request) error {
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
	r.stage(h, payload)
	if len(payload) > 0 {
		// What the eager copy into the preregistered slot costs.
		p.Sleep(r.w.Plat.CopyCost(r.Loc(), len(payload)))
	}
	// Header SGE + data SGE + tail SGE, as the paper lays the packet out.
	wr := r.newSendWR(kind, req, ps)
	wr.h = h
	wr.Opcode = ib.OpRDMAWrite
	wr.Remote = ib.RemoteAddr{Addr: ps.out.slotAddr(ps.nextSlot), RKey: ps.out.rkey}
	ps.nextSlot = (ps.nextSlot + 1) % ps.out.slots
	wr.Signaled = true
	// The next packet to any peer is assembled in the same slot before
	// this one completes, so the HCA takes the bytes at post time.
	wr.Inline = true
	wr.SGL = append(wr.SGL, ib.SGE{Addr: r.slot.Addr, Len: hdrSize, LKey: r.slotMR.LKey})
	if len(payload) > 0 {
		wr.SGL = append(wr.SGL, ib.SGE{Addr: r.slot.Addr + hdrSize, Len: len(payload), LKey: r.slotMR.LKey})
	}
	wr.SGL = append(wr.SGL, ib.SGE{Addr: r.slot.Addr + uint64(hdrSize+len(payload)), Len: tailSize, LKey: r.slotMR.LKey})
	r.nextWR(wr)
	r.packetSent(p, ps.id, h, kind, wr.WRID)
	return r.post(p, wr)
}

// stage writes one packet — header, payload, tail — into the rank's
// slot, from which the packet's WR gathers it at post time.
func (r *Rank) stage(h header, payload []byte) {
	s := r.slot.Data
	h.encode(s[:hdrSize])
	copy(s[hdrSize:], payload)
	binary.LittleEndian.PutUint64(s[hdrSize+len(payload):], tailMarker(h.seq))
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
	r.posted(p, req)
	req.owe()
	if dst == r.id {
		ps.sendSeq++
		r.resolved(req, protoSelf)
		r.sendSelf(p, ps, req)
		return req, nil
	}
	// Drain arrived packets first: an RTR for this very sequence id may
	// already be waiting (receiver-first), which changes the protocol.
	// The send is counted only after, so an RTR landing during this call
	// is kept for it (earlyRTR) and one landing later is dropped
	// (handlePacket).
	r.progress(p)
	ps.sendSeq++
	if s.N <= r.w.Cfg.EagerMax {
		r.resolved(req, protoEager)
		r.trySendEager(p, ps, req)
		return req, nil
	}
	if err := r.startRendezvousSend(p, ps, req); err != nil {
		// A post that failed is owed no wait: complete it here, which
		// releases whatever it pinned or staged.
		req.complete(p, err)
		req.seen()
		return req, err
	}
	return req, nil
}

// trySendEager posts the eager packet now or queues it for credit.
func (r *Rank) trySendEager(p *sim.Proc, ps *peerState, req *Request) {
	// Sender-eager / receiver-rendezvous mis-prediction where the RTR
	// arrived before this send was even posted: drop it — the sequence
	// id guarantees it belonged to this send only.
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
	r.postEager(p, ps, req)
}

// postEager writes req's eager packet into the peer's ring, now or when
// progress finds credit for a queued send; the caller holds a
// data-class credit (credits > 1). A failed post completes the request
// with the error, and postEager reports false.
func (r *Rank) postEager(p *sim.Proc, ps *peerState, req *Request) bool {
	h := header{kind: pktEager, tag: req.tag, seq: req.seq}
	if err := r.sendPacket(p, ps, h, req.slice.Bytes(), wrEager, req); err != nil {
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
func (r *Rank) startRendezvousSend(p *sim.Proc, ps *peerState, req *Request) error {
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
	ps.sendsBySeq[req.seq] = req

	// Receiver-first: an RTR for this sequence may already be here.
	if rtr, ok := ps.earlyRTR[req.seq]; ok {
		delete(ps.earlyRTR, req.seq)
		r.step(p, stepRecvFirst, peer, req.seq, 0)
		return r.rndvWrite(p, ps, req, rtr)
	}
	// The RTS advertises the staged range's host address, else the send
	// buffer's own.
	h := header{kind: pktRTS, tag: req.tag, seq: req.seq, raddr: s.Addr(), rsize: s.N}
	if req.staged {
		h.raddr, h.rkey = r.arena.addr(int(req.off)), r.arena.omr.HostMR.RKey
	} else {
		h.rkey = req.pins[0].RKey
	}
	if err := r.ctrlSend(p, ps, h); err != nil {
		return err
	}
	req.state = stRTSSent
	r.step(p, stepRTSSend, peer, req.seq, s.N)
	return nil
}

// rndvWrite performs the receiver-first protocol's RDMA write into the
// buffer advertised by the RTR, followed by a DONE packet on completion.
func (r *Rank) rndvWrite(p *sim.Proc, ps *peerState, req *Request, rtr header) error {
	if req.slice.N > rtr.rsize {
		// Receiver-first truncation: abort both sides.
		delete(ps.sendsBySeq, req.seq)
		req.complete(p, ErrTruncate)
		return r.ctrlSend(p, ps, header{kind: pktNackW, seq: req.seq})
	}
	wr := r.newSendWR(wrRndvWrite, req, ps)
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
	r.nextWR(wr)
	req.state = stWriting
	r.resolved(req, protoRecvRzv)
	r.xferStarted(p, req, wrRndvWrite, wr.WRID, req.slice.N)
	return r.post(p, wr)
}

// ctrlSend transmits a zero-payload control packet (control packets
// share the eager rings); with no credit available it is queued and
// drained by progress. Sequence-id matching makes the resulting
// reordering harmless.
func (r *Rank) ctrlSend(p *sim.Proc, ps *peerState, h header) error {
	if ps.credits <= 1 || ps.pendingCtrl.Len() > 0 {
		ps.pendingCtrl.Push(h)
		ps.mark()
		return nil
	}
	return r.postCtrl(p, ps, h)
}

// postCtrl writes one zero-payload packet into the pair's ring; the
// caller holds a credit of the packet's class.
func (r *Rank) postCtrl(p *sim.Proc, ps *peerState, h header) error {
	return r.sendPacket(p, ps, h, nil, wrCtrl, nil)
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
	var ps *peerState
	if src != AnySource {
		var err error
		if ps, err = r.ensurePeer(p, src); err != nil {
			return nil, r.abandon(p, req, err)
		}
	}
	req.owe()
	if src == r.id {
		// Nothing on the wire and no ANY_SOURCE receive can take a
		// loopback message, so neither progress nor the lock is in
		// the way of binding it now.
		r.resolved(req, protoSelf)
		r.bindRecv(p, req, ps)
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
		r.bindRecv(p, req, ps)
	}
	return req, nil
}

// bindRecv assigns the pair's next sequence id to a receive and
// matches it against unexpected arrivals, possibly sending an RTR.
func (r *Rank) bindRecv(p *sim.Proc, req *Request, ps *peerState) {
	src := ps.id
	req.peer = int32(src)
	req.seq = ps.recvSeq
	ps.recvSeq++
	if src != r.id {
		// A loopback message has no cross-rank lifecycle to report.
		r.bound(p, req, src)
	}
	if a, ok := ps.unexpected[req.seq]; ok {
		delete(ps.unexpected, req.seq)
		r.matchArrival(p, ps, req, a.h, a.data)
		r.arrivalFree.Put(a)
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
		if err := r.ctrlSend(p, ps, h); err != nil {
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

// newArrival records a packet that has to wait for its receive — an
// unexpected one, or a loopback send with no receive posted — in a
// pooled record, copying its payload into the record's retained backing,
// which grows only when the payload is larger than any it held before.
// A packet that matches when it arrives needs no record.
func (r *Rank) newArrival(h header, payload []byte) *arrival {
	a, ok := r.arrivalFree.Get()
	if !ok {
		a = &arrival{}
	}
	if cap(a.data) < len(payload) {
		a.data = make([]byte, len(payload))
	}
	a.h, a.data = h, a.data[:len(payload)]
	copy(a.data, payload)
	return a
}

// matchArrival pairs a posted receive with packet h on pair ps (an
// eager payload in data, or an RTS). Both arms copy what they need of
// the packet before completing, so the caller may then reuse data.
func (r *Rank) matchArrival(p *sim.Proc, ps *peerState, req *Request, h header, data []byte) {
	if !tagsMatch(int(req.tag), h) {
		req.complete(p, ErrTagMismatch)
		return
	}
	r.matched(p, req)
	switch h.kind {
	case pktEager:
		if h.payload > req.slice.N {
			req.complete(p, ErrTruncate)
			return
		}
		if int(req.peer) != r.id {
			// A loopback receive resolved as self when posted.
			r.resolved(req, protoEager)
		}
		copy(req.slice.Bytes(), data)
		p.Sleep(r.w.Plat.CopyCost(r.Loc(), h.payload))
		req.status = status{src: int32(h.src), tag: h.tag, n: int32(h.payload)}
		req.complete(p, nil)
	case pktRTS:
		r.startRead(p, ps, req, h)
	default:
		panic(fmt.Sprintf("core: arrival of kind %d cannot match a receive", h.kind))
	}
}

// startRead runs the sender-first protocol's receiver half: RDMA read
// from the advertised buffer, then DONE.
func (r *Rank) startRead(p *sim.Proc, ps *peerState, req *Request, rts header) {
	// An RTR already sent for this receive means both sides started
	// the handshake at once: the simultaneous send/receive rendezvous.
	simul := req.state == stRTRWait
	if rts.rsize > req.slice.N {
		// Sender-rendezvous / receiver-eager mis-prediction: the send is
		// larger than the receive; the receiver issues an MPI error. A
		// NACK is still sent so the sender does not hang.
		req.complete(p, ErrTruncate)
		if err := r.ctrlSend(p, ps, header{kind: pktNack, seq: rts.seq}); err != nil {
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
	wr := r.newSendWR(wrRndvRead, req, ps)
	wr.Opcode = ib.OpRDMARead
	wr.Remote = ib.RemoteAddr{Addr: rts.raddr, RKey: rts.rkey}
	wr.Signaled = true
	wr.SGL = append(wr.SGL, ib.SGE{Addr: req.slice.Addr(), Len: rts.rsize, LKey: mr.LKey})
	r.nextWR(wr)
	req.state = stReading
	req.seq = rts.seq
	if simul {
		r.resolved(req, protoSimulRzv)
	} else {
		r.resolved(req, protoSenderRzv)
	}
	r.xferStarted(p, req, wrRndvRead, wr.WRID, rts.rsize)
	if err := r.post(p, wr); err != nil {
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
	for _, ps := range r.pairs {
		if a := ps.probe(int(req.tag)); a != nil {
			delete(ps.unexpected, ps.recvSeq)
			r.bindAny(p, ps, a.h, a.data)
			r.arrivalFree.Put(a)
			return
		}
	}
}

// bindAny gives the active ANY_SOURCE receive the pair's next sequence
// id — the one packet h carries, with data — and releases the lock. From
// then on the receive names the pair's peer, so its completion does too.
func (r *Rank) bindAny(p *sim.Proc, ps *peerState, h header, data []byte) {
	req := r.anyActive
	r.anyActive = nil
	ps.recvSeq++
	req.seq = h.seq
	r.bound(p, req, ps.id)
	req.peer = int32(ps.id)
	r.matchArrival(p, ps, req, h, data)
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
			r.bindRecv(p, req, r.pair(int(req.peer)))
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
		r.matchArrival(p, ps, recv, h, req.slice.Bytes())
	} else {
		ps.unexpected[req.seq] = r.newArrival(h, req.slice.Bytes())
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
	for ps := r.nextReady(-1); ps != nil; ps = r.nextReady(ps.id) {
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
				r.step(p, stepReplayDrop, ps.id, h.psn, int(ps.recvPSN))
				did = true
				continue
			}
			if h.psn > ps.recvPSN {
				panic(fmt.Sprintf("core: rank %d: psn gap from %d: got %d want %d", r.id, ps.id, h.psn, ps.recvPSN))
			}
			ps.recvPSN++
			p.Sleep(r.w.Plat.PollCost(r.Loc()) + r.v.RecvOverhead(h.payload))
			r.packetRecvd(p, ps.id, h)
			r.handlePacket(p, ps, h, payload)
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
	// Retry credit-starved control packets, then eager sends.
	for ps := r.nextReady(-1); ps != nil; ps = r.nextReady(ps.id) {
		for ps.credits > 1 && ps.pendingCtrl.Len() > 0 {
			if err := r.postCtrl(p, ps, ps.pendingCtrl.Pop()); err != nil {
				panic(err)
			}
			did = true
		}
		for ps.credits > 1 && ps.pendingSends.Len() > 0 {
			if r.postEager(p, ps, ps.pendingSends.Pop()) {
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
			if err := r.postCtrl(p, ps, header{kind: pktCredit}); err == nil {
				r.step(p, stepCredit, ps.id, 0, 0)
				did = true
			}
		}
	}
	// Unmark the pairs left with nothing landed and nothing queued.
	keep := r.ready[:0]
	for _, ps := range r.ready {
		if ps.landed || ps.queued() {
			keep = append(keep, ps)
		}
	}
	r.ready = keep
	return did
}

// handlePacket dispatches one packet read from the pair's ring.
func (r *Rank) handlePacket(p *sim.Proc, ps *peerState, h header, payload []byte) {
	src := ps.id
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
			r.matchArrival(p, ps, req, h, payload)
			return
		}
		// Then the ANY_SOURCE receive: it takes its sequence id from the
		// first matching packet.
		if r.anyActive != nil && h.seq == ps.recvSeq && tagsMatch(int(r.anyActive.tag), h) {
			r.step(p, stepAnyMatch, src, h.seq, 0)
			r.bindAny(p, ps, h, payload)
			return
		}
		// Unexpected: copy eager payloads out of the ring so the slot
		// can be recycled.
		a := r.newArrival(h, payload)
		if h.kind == pktEager && h.payload > 0 {
			p.Sleep(r.w.Plat.CopyCost(r.Loc(), h.payload))
		}
		ps.unexpected[h.seq] = a
		r.step(p, stepUnexpected, src, h.seq, h.payload)
	case pktRTR:
		req, rndv := ps.sendsBySeq[h.seq]
		switch {
		case rndv && req.state == stRTSSent:
			// Simultaneous send/receive rendezvous: the sender
			// disregards the RTR and waits for the receiver's read.
			r.resolved(req, protoSimulRzv)
			r.step(p, stepSimulDrop, src, h.seq, 0)
		case rndv || h.seq < ps.sendSeq:
			// Sender-eager mis-prediction, or a rendezvous send that
			// already failed (one in any other state took its RTR at
			// Isend): drop the RTR; the sequence id guarantees it
			// belonged to this send only.
			r.step(p, stepMispredictRTR, src, h.seq, 0)
		default:
			// RTR before the local Isend (receiver-first): stash it in
			// the outbound sequence space.
			ps.earlyRTR[h.seq] = h
		}
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
	w, ok := r.wrMap[e.WRID]
	if !ok {
		panic(fmt.Sprintf("core: rank %d: completion for unknown WR %d", r.id, e.WRID))
	}
	delete(r.wrMap, e.WRID)
	r.cqe(p, w)
	if e.Status != ib.StatusSuccess {
		if (e.Status == ib.StatusRetryExcErr || e.Status == ib.StatusWRFlushErr) && r.faultsOn() {
			r.recoverWR(p, w, e.Status)
			return
		}
		if w.req != nil {
			w.req.complete(p, fmt.Errorf("core: work request failed: %v", e.Status))
		}
		return
	}
	// The hardware is done with the WR, and a successful completion is
	// its last: return it to the pool.
	kind, req, ps := w.kind, w.req, w.ps
	r.recycleWR(w)
	switch kind {
	case wrEager:
		req.complete(p, nil)
	case wrCtrl:
		// Control packet delivered; nothing to do.
	case wrRndvWrite:
		// Receiver-first write done: tell the receiver.
		r.xferDone(p, req)
		delete(ps.sendsBySeq, req.seq)
		done := header{kind: pktDoneW, seq: req.seq, rsize: req.slice.N}
		req.complete(p, r.ctrlSend(p, ps, done))
	case wrRndvRead:
		// Sender-first read done: tell the sender.
		r.xferDone(p, req)
		done := header{kind: pktDone, seq: req.seq, rsize: int(req.status.n)}
		req.complete(p, r.ctrlSend(p, ps, done))
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
