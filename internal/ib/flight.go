package ib

import (
	"repro/internal/machine"
	"repro/internal/metrics"
)

// flight is one work request on the wire — every opcode PostSend
// accepts, faulted or not: what its arrival, response and completion
// events need between the post and the last of them. A flight has one
// event pending at a time: the post schedules its arrival, the arrival
// its response (a READ) or its completion, and the response its
// completion. Records come from a pool on the Fabric and go back when
// the last event has fired, and the three callbacks handed to Engine.At
// are method values bound when the record is first made — so a work
// request in steady state allocates nothing, and ib schedules no
// closure of its own.
type flight struct {
	qp, rem *QP // the posting QP and its peer at post time
	wr      *SendWR
	// op and signaled are wr's at post time. They decide which events
	// fire and which is the last, so they are not re-read from a WR the
	// poster might have rewritten.
	op       Opcode
	signaled bool
	// src is the gathered source of a SEND or WRITE; for a READ, buf is
	// the responder's validated view once the request has arrived, read
	// when the response lands.
	src  wireSrc
	n    int           // payload bytes
	span *metrics.Span // wire span of a WRITE or READ on an instrumented fabric

	// READ only: the memory kind of the local scatter list's first
	// element at post time (the telemetry direction).
	dstKind machine.DomainKind

	// The fault plan's verdict on a WRITE or READ, drawn at post time:
	// fault is retry exhaustion — the wire attempt gives up, and the QP
	// errors at its completion — and delivered says a WRITE's payload
	// landed first. Both halves of that ambiguity must be survivable,
	// which is what the upper layer's sequence-id dedupe is for. A failed
	// READ writes no local byte.
	fault, delivered bool

	// status is what the completion reports; any other than success, set
	// by fail, errors the QP right after.
	status Status

	// seq numbers the flight among its QP's posts; flushed says SetError
	// has completed it, so its events to come only release it. next is
	// the flight posted after it on the QP's wire list.
	seq     uint64
	flushed bool
	next    *flight

	onArrive, onRespond, onComplete func()
}

// takeFlight hands out a record for wr, posted on qp with n payload
// bytes gathered into src.
func (f *Fabric) takeFlight(qp *QP, wr *SendWR, src wireSrc, n int) *flight {
	x, ok := f.flightFree.Get()
	if !ok {
		x = &flight{}
		x.onArrive, x.onRespond, x.onComplete = x.arrive, x.respond, x.complete
	}
	x.qp, x.rem, x.wr, x.op, x.signaled = qp, qp.remote, wr, wr.Opcode, wr.Signaled
	x.src, x.n = src, n
	qp.posts++
	x.seq, *qp.last, qp.last = qp.posts, x, &x.next
	return x
}

// release returns the record once no scheduled event refers to it,
// dropping everything it referenced, and takes it off its QP's wire list
// if SetError has not: the oldest flight, the common case, without a
// walk.
func (x *flight) release() {
	qp := x.qp
	if !x.flushed {
		at := &qp.head
		for *at != x {
			at = &(*at).next
		}
		if *at = x.next; qp.last == &x.next {
			qp.last = at
		}
	}
	f := qp.ctx.HCA.fab
	*x = flight{onArrive: x.onArrive, onRespond: x.onRespond, onComplete: x.onComplete}
	f.flightFree.Put(x)
}

// stopped reports whether an event of the flight must do nothing: the
// flight was flushed, or a WR posted before it failed (see fail). Since
// no other event of the flight is pending, a flushed flight is then
// released, and a halted one looks again a wire latency on, by when the
// failed WR has completed and the QP's error has flushed it.
func (x *flight) stopped() bool {
	qp, eng := x.qp, x.qp.ctx.HCA.fab.Eng
	if !x.flushed && (qp.haltAt == 0 || x.seq <= qp.haltAt) {
		return false
	}
	x.span.End(eng.Now())
	if x.flushed {
		x.release()
	} else {
		eng.At(eng.Now()+qp.ctx.HCA.fab.Plat.IBLatency, x.onComplete)
	}
	return true
}

// fail makes the work request complete with st and error its QP then.
// Until that completion the responder drops every WR posted after it.
func (x *flight) fail(st Status) {
	x.status = st
	if qp := x.qp; qp.haltAt == 0 || x.seq < qp.haltAt {
		qp.haltAt = x.seq
	}
}

// flush completes the work request WR_FLUSH_ERR, or RetryExcErr if it
// drew a fault, so that every injected fault is reported once.
func (x *flight) flush() {
	st := StatusWRFlushErr
	if x.fault {
		st = StatusRetryExcErr
	}
	x.qp.SendCQ.push(CQE{WRID: x.wr.WRID, Status: st, Opcode: x.op, QPN: x.qp.QPN})
	x.doneWith()
	x.flushed = true
}

// doneWith ends the wire's hold on a SEND's or WRITE's source, once: an
// inline capture goes back to the free list. Like Remote, Inline is read
// from the posted WR, which is the HCA's until it completes.
func (x *flight) doneWith() {
	if x.wr.Inline && x.op != OpRDMARead {
		x.qp.ctx.HCA.fab.releaseBuf(x.src.buf)
		x.src.buf = nil
	}
}

// arrive is the work request reaching the remote HCA.
func (x *flight) arrive() {
	if x.stopped() {
		return
	}
	switch x.op {
	case OpSend:
		// A SEND lands in the peer's receive queue.
		x.rem.land(x.src, x.qp.QPN)
		x.doneWith()
		x.completeLater()
	case OpRDMAWrite:
		x.writeArrive()
	default:
		x.readArrive()
	}
}

// writeArrive lands an RDMA write: keys are re-validated now, so a
// deregistration since the post still faults.
func (x *flight) writeArrive() {
	qp, rem, wr := x.qp, x.rem, x.wr
	x.span.End(qp.ctx.HCA.fab.Eng.Now())
	dst, _, err := rem.ctx.HCA.lookupMR(wr.Remote.RKey, wr.Remote.Addr, x.n)
	lands := err == nil && (!x.fault || x.delivered)
	if lands {
		// The one copy of the transfer: source MR to destination MR.
		x.src.copyTo(dst)
	}
	x.doneWith()
	switch {
	case x.fault:
		if lands {
			rem.landed()
		}
		x.fail(StatusRetryExcErr)
	case err != nil:
		x.fail(StatusRemAccessErr)
	default:
		rem.landed()
	}
	x.completeLater()
}

// completeLater schedules, one wire latency on, the completion of a work
// request that is signaled or has failed — a failed one completes in
// error whether or not it asked for a completion, as in verbs; an
// unsignaled success has no further event.
func (x *flight) completeLater() {
	if x.signaled || x.status != StatusSuccess {
		fab := x.qp.ctx.HCA.fab
		fab.Eng.At(fab.Eng.Now()+fab.Plat.IBLatency, x.onComplete)
		return
	}
	x.release()
}

// readArrive is an RDMA read request reaching the responder, which
// validates the remote keys and streams the data back over its own
// egress; the validated source view is read when the response lands.
func (x *flight) readArrive() {
	qp, rem, wr := x.qp, x.rem, x.wr
	h, rh := qp.ctx.HCA, rem.ctx.HCA
	eng, plat := h.fab.Eng, h.fab.Plat
	if x.fault {
		x.span.End(eng.Now())
		x.fail(StatusRetryExcErr)
		x.completeLater()
		return
	}
	src, mr, err := rh.lookupMR(wr.Remote.RKey, wr.Remote.Addr, x.n)
	if err != nil {
		// The responder refuses the request; the requester's QP errors
		// with it.
		x.span.End(eng.Now())
		x.fail(StatusRemAccessErr)
		x.completeLater()
		return
	}
	if h.fab.Metrics != nil {
		ps := h.pair(&h.readPairs, "rdma-read.bytes.", mr.Dom.Kind, x.dstKind)
		ps.bytes.Add(int64(x.n))
		x.span.Attr("pair", ps.name)
	}
	rate := qp.capRate(min(plat.IBBandwidth, plat.HCARead(mr.Dom.Kind)))
	back := rh.egress.ReserveRate(x.n, rate)
	back = rh.deliverVia(back, h, x.n, rate)
	x.src.buf = src
	eng.At(back, x.onRespond)
}

// respond is a READ's data landing: the local scatter list is
// re-validated and filled, and the work request completes in the same
// instant if it is signaled or has failed; an unsignaled success pushes
// no completion, as in verbs.
func (x *flight) respond() {
	if x.stopped() {
		return
	}
	h := x.qp.ctx.HCA
	x.span.End(h.fab.Eng.Now())
	remb := x.src.buf
	for _, sge := range x.wr.SGL {
		dst, _, err := h.lookupMR(sge.LKey, sge.Addr, sge.Len)
		if err != nil {
			// A READ that can no longer scatter errors its QP.
			x.fail(StatusLocProtErr)
			x.complete()
			return
		}
		remb = remb[copy(dst, remb):]
	}
	x.qp.landed()
	if !x.signaled {
		x.release()
		return
	}
	x.complete()
}

// complete pushes the work request's completion — always the record's
// last event — and errors the QP after a failure, which flushes every WR
// still on the wire behind this completion.
func (x *flight) complete() {
	if x.stopped() {
		return
	}
	qp := x.qp
	e := CQE{WRID: x.wr.WRID, Status: x.status, Opcode: x.op, QPN: qp.QPN}
	if x.status == StatusSuccess {
		e.ByteLen = x.n
	}
	x.release()
	qp.SendCQ.push(e)
	if e.Status != StatusSuccess {
		qp.SetError()
	}
}
