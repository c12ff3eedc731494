package ib

import (
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// flight is one SEND, RDMA_WRITE or RDMA_READ work request on the wire:
// what its arrival, response and completion events need between
// PostSend and the last of them. Records come from a free list on the
// Fabric and go back when that last event has fired, and the three
// callbacks handed to Engine.At are method values bound when the record
// is first made — so a work request in steady state allocates nothing,
// where a closure per event allocated two or three times per WR.
type flight struct {
	qp, rem *QP // the posting QP and its peer at post time
	wr      *SendWR
	// op and signaled are wr's at post time. They decide which events
	// fire and which is the last, so they are not re-read from a WR the
	// poster might have rewritten.
	op       Opcode
	signaled bool
	// src is the gathered source of a SEND or WRITE; for a READ, buf is
	// the responder's validated view once the request has arrived.
	src  wireSrc
	n    int           // payload bytes
	span *metrics.Span // wire span of a WRITE or READ on an instrumented fabric

	// READ only, from the local scatter list at post time: its slowest
	// destination-domain write rate and its first element's memory kind.
	writeRate float64
	dstKind   machine.DomainKind

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
	var x *flight
	if k := len(f.flightFree); k > 0 {
		x = f.flightFree[k-1]
		f.flightFree = f.flightFree[:k-1]
	} else {
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
	f.flightFree = append(f.flightFree, x)
}

// arrive is the work request reaching the remote HCA.
func (x *flight) arrive() {
	switch x.op {
	case OpSend, OpSendImm:
		x.sendArrive()
	case OpRDMAWrite, OpRDMAWriteImm:
		x.writeArrive()
	default:
		x.readArrive()
	}
}

// sendArrive lands a SEND in the peer's receive queue. Its completion,
// if signaled, was scheduled at post time.
func (x *flight) sendArrive() {
	x.rem.land(x.src, x.wr.Imm, x.op == OpSendImm, x.qp.QPN)
	x.qp.doneWith(x.wr, x.src)
	if !x.signaled {
		x.release()
	}
}

// writeArrive lands an RDMA write: keys are re-validated now, so a
// deregistration since the post still faults.
func (x *flight) writeArrive() {
	qp, rem, wr := x.qp, x.rem, x.wr
	fab := qp.ctx.HCA.fab
	x.span.End(fab.Eng.Now())
	dst, _, err := rem.ctx.HCA.lookupMR(wr.Remote.RKey, wr.Remote.Addr, x.n)
	if err != nil {
		qp.doneWith(wr, x.src)
		x.status = StatusRemAccessErr
		x.completeAt(fab.Eng.Now() + fab.Plat.IBLatency)
		qp.SetError()
		return
	}
	// The one copy of the transfer: source MR to destination MR.
	x.src.copyTo(dst)
	qp.doneWith(wr, x.src)
	if x.op == OpRDMAWriteImm {
		rem.land(wireSrc{}, wr.Imm, true, qp.QPN)
	}
	rem.ctx.HCA.Doorbell.Broadcast()
	x.completeAt(fab.Eng.Now() + fab.Plat.IBLatency)
}

// completeAt schedules the completion of a signaled work request; an
// unsignaled one has no further event.
func (x *flight) completeAt(t sim.Time) {
	if x.signaled {
		x.qp.ctx.HCA.fab.Eng.At(t, x.onComplete)
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
	src, mr, err := rh.lookupMR(wr.Remote.RKey, wr.Remote.Addr, x.n)
	if err != nil {
		x.span.End(eng.Now())
		x.status, x.errQP = StatusRemAccessErr, true
		eng.At(eng.Now()+plat.IBLatency, x.onComplete)
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
	rh.BytesOut += int64(x.n)
	x.src.buf = src
	eng.At(back, x.onRespond)
}

// respond is the read response landing: the local scatter list is
// re-validated and filled, and the work request completes in the same
// instant.
func (x *flight) respond() {
	h := x.qp.ctx.HCA
	x.span.End(h.fab.Eng.Now())
	remb := x.src.buf
	for _, sge := range x.wr.SGL {
		dst, _, err := h.lookupMR(sge.LKey, sge.Addr, sge.Len)
		if err != nil {
			x.status, x.errQP = StatusLocProtErr, true
			x.complete()
			return
		}
		remb = remb[copy(dst, remb):]
	}
	h.Doorbell.Broadcast()
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
