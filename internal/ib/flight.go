package ib

import (
	"repro/internal/machine"
	"repro/internal/metrics"
)

// flight is one work request on the wire — every opcode PostSend
// accepts, faulted or not: what its arrival, response and completion
// events need between the post and the last of them. Records come from a
// pool on the Fabric and go back when that last event has fired, and the
// three callbacks handed to Engine.At are method values bound when the
// record is first made — so a work request in steady state allocates
// nothing, and ib schedules no closure of its own.
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

	// READ only, from the local scatter list at post time: its slowest
	// destination-domain write rate and its first element's memory kind.
	writeRate float64
	dstKind   machine.DomainKind

	// The fault plan's verdict on a WRITE or READ, drawn at post time:
	// fault is retry exhaustion — the QP errors when the wire attempt
	// gives up — and delivered says a WRITE's payload landed first. Both
	// halves of that ambiguity must be survivable, which is what the upper
	// layer's sequence-id dedupe is for. A failed READ writes no local
	// byte.
	fault, delivered bool

	// status is what the completion reports; errQP makes it error the QP
	// right after (a READ the responder refused, or one whose local
	// scatter list no longer validates).
	status Status
	errQP  bool

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
	return x
}

// release returns the record once no scheduled event refers to it,
// dropping everything it referenced.
func (x *flight) release() {
	f := x.qp.ctx.HCA.fab
	*x = flight{onArrive: x.onArrive, onRespond: x.onRespond, onComplete: x.onComplete}
	f.flightFree.Put(x)
}

// arrive is the work request reaching the remote HCA.
func (x *flight) arrive() {
	switch x.op {
	case OpSend:
		x.sendArrive()
	case OpRDMAWrite:
		x.writeArrive()
	default:
		x.readArrive()
	}
}

// sendArrive lands a SEND in the peer's receive queue. Its completion,
// if signaled, was scheduled at post time.
func (x *flight) sendArrive() {
	x.rem.land(x.src, x.qp.QPN)
	x.qp.doneWith(x.wr, x.src)
	if !x.signaled {
		x.release()
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
	qp.doneWith(wr, x.src)
	switch {
	case x.fault:
		if lands {
			rem.ctx.HCA.landed(rem)
		}
		x.status = StatusRetryExcErr
		qp.SetError()
		x.completeLater()
	case err != nil:
		x.status = StatusRemAccessErr
		x.completeLater()
		qp.SetError()
	default:
		rem.ctx.HCA.landed(rem)
		x.completeLater()
	}
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
		x.status = StatusRetryExcErr
		qp.SetError()
		x.completeLater()
		return
	}
	src, mr, err := rh.lookupMR(wr.Remote.RKey, wr.Remote.Addr, x.n)
	if err != nil {
		// The responder refuses the request; the requester's QP errors
		// with it.
		x.span.End(eng.Now())
		x.status, x.errQP = StatusRemAccessErr, true
		x.completeLater()
		return
	}
	if h.fab.Metrics != nil {
		ps := h.pair(&h.readPairs, "rdma-read.bytes.", mr.Dom.Kind, x.dstKind)
		ps.bytes.Add(int64(x.n))
		x.span.Attr("pair", ps.name)
	}
	rate := qp.capRate(minRate(plat.IBBandwidth, minRate(plat.HCARead(mr.Dom.Kind), x.writeRate)))
	back := rh.egress.ReserveRate(x.n, rate)
	back = rh.deliverVia(back, h, x.n, rate)
	x.src.buf = src
	eng.At(back, x.onRespond)
}

// respond is a READ's data landing: the local scatter list is
// re-validated and filled, and the work request completes in the same
// instant.
func (x *flight) respond() {
	h := x.qp.ctx.HCA
	x.span.End(h.fab.Eng.Now())
	remb := x.src.buf
	for _, sge := range x.wr.SGL {
		dst, _, err := h.lookupMR(sge.LKey, sge.Addr, sge.Len)
		if err != nil {
			// A READ that can no longer scatter errors its QP.
			x.status, x.errQP = StatusLocProtErr, true
			x.complete()
			return
		}
		remb = remb[copy(dst, remb):]
	}
	h.landed(x.qp)
	x.complete()
}

// complete pushes the work request's completion — always the record's
// last event.
func (x *flight) complete() {
	qp := x.qp
	e := CQE{WRID: x.wr.WRID, Status: x.status, Opcode: x.op, QPN: qp.QPN}
	if x.status == StatusSuccess {
		e.ByteLen = x.n
	}
	errQP := x.errQP
	x.release()
	qp.SendCQ.push(e)
	if errQP {
		qp.SetError()
	}
}
