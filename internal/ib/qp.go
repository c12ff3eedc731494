package ib

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// QPState is the reliable-connection state machine, reduced to the
// states the paper's software distinguishes.
type QPState int

const (
	QPReset QPState = iota
	QPConnected
	QPError
)

// QP is a reliable-connected queue pair.
type QP struct {
	ctx    *Context
	QPN    uint32
	PD     *PD
	SendCQ *CQ
	RecvCQ *CQ
	State  QPState

	remote *QP

	// RateCap, when positive, bounds this QP's effective transfer rate
	// (bytes/s) below whatever the fabric would allow. The proxied
	// 'Intel MPI on Xeon Phi' path uses it to model host-staged relay
	// throughput.
	RateCap float64

	// OnLand, when set, is called whenever bytes land in this node's
	// memory through this QP, before the doorbell rings: its owner learns
	// which connection to look at instead of polling them all.
	OnLand func()

	recvQueue sim.FIFO[*RecvWR]
	// pending holds SEND payloads that arrived before a receive was
	// posted (the simulator's RNR condition).
	pending sim.FIFO[*inbound]

	// Telemetry handles, created with the QP when Fabric.Metrics is
	// installed (nil otherwise; recording through them is a no-op).
	postedC    *metrics.Counter
	completedC *metrics.Counter
}

// inbound is a SEND parked until a receive is posted. data is the
// inbound's own copy: the sender's completion fires whether or not a
// receive was waiting, so nothing of the sender's may be referenced past
// arrival.
type inbound struct {
	data   []byte
	srcQPN uint32
}

// wireSrc is what a posted work request holds of its local SGL until
// the wire delivers it. A plain post holds views of the registered
// source memory, read when the bytes land; an Inline post holds one
// capture of the bytes as they were at post time, taken from the
// fabric's free list and handed back with releaseBuf. It is two slice
// headers passed and captured by value: a post allocates nothing for it
// unless a plain SGL has several elements.
type wireSrc struct {
	buf  []byte   // the inline capture, or the one view of a single-element SGL
	more [][]byte // the views of a plain multi-element SGL, in order (buf unused)
}

// size is the payload length in bytes.
func (s wireSrc) size() int {
	n := len(s.buf)
	for _, v := range s.more {
		n += len(v)
	}
	return n
}

// copyTo gathers the payload into dst, which holds at least size bytes.
func (s wireSrc) copyTo(dst []byte) {
	dst = dst[copy(dst, s.buf):]
	for _, v := range s.more {
		dst = dst[copy(dst, v):]
	}
}

// CreateQP allocates an RC queue pair bound to the given CQs.
func (c *Context) CreateQP(pd *PD, sendCQ, recvCQ *CQ) *QP {
	h := c.HCA
	h.nextQPN++
	qp := &QP{ctx: c, QPN: h.nextQPN, PD: pd, SendCQ: sendCQ, RecvCQ: recvCQ, State: QPReset}
	h.qps[qp.QPN] = qp
	if reg := h.fab.Metrics; reg != nil {
		name := fmt.Sprintf("qp%#x", qp.QPN)
		qp.postedC = reg.Counter(h.actor, name+".posted")
		qp.completedC = reg.Counter(h.actor, name+".completed")
	}
	return qp
}

// SetError forces the QP into the error state and flushes every posted
// receive with WR_FLUSH_ERR, as the RC state machine does. Pending
// inbound messages are dropped.
func (qp *QP) SetError() {
	if qp.State == QPError {
		return
	}
	qp.State = QPError
	for qp.recvQueue.Len() > 0 {
		qp.RecvCQ.push(CQE{WRID: qp.recvQueue.Pop().WRID, Status: StatusWRFlushErr, Opcode: OpRecv, QPN: qp.QPN})
	}
	qp.pending = sim.FIFO[*inbound]{}
}

// Reset returns an errored QP to the Reset state so it can be
// reconnected with Connect. SetError already flushed the receive
// queue; Reset drops the remote binding so stale traffic cannot use
// it. The QP object (and its QPN) survives, so the peer's existing
// Connect binding to this QP remains valid across the cycle.
func (qp *QP) Reset() {
	qp.State = QPReset
	qp.remote = nil
	qp.recvQueue = sim.FIFO[*RecvWR]{}
	qp.pending = sim.FIFO[*inbound]{}
}

// Connect transitions the QP to RTS against the remote (lid, qpn). Both
// ends must Connect for traffic to flow; ConnectPair does both.
func (qp *QP) Connect(lid uint16, qpn uint32) error {
	h, err := qp.ctx.HCA.fab.HCAByLID(lid)
	if err != nil {
		return err
	}
	r, ok := h.qps[qpn]
	if !ok {
		return fmt.Errorf("ib: QPN %#x not found on LID %d", qpn, lid)
	}
	qp.remote = r
	qp.State = QPConnected
	return nil
}

// ConnectPair wires a and b to each other.
func ConnectPair(a, b *QP) error {
	if err := a.Connect(b.ctx.HCA.LID, b.QPN); err != nil {
		return err
	}
	return b.Connect(a.ctx.HCA.LID, a.QPN)
}

// PostRecv posts a receive work request.
func (qp *QP) PostRecv(p *sim.Proc, wr *RecvWR) error {
	if qp.State == QPError {
		return fmt.Errorf("ib: QP %#x in error state", qp.QPN)
	}
	// Validate SGEs now, as a real post does.
	for _, sge := range wr.SGL {
		if _, _, err := qp.ctx.HCA.lookupMR(sge.LKey, sge.Addr, sge.Len); err != nil {
			return fmt.Errorf("ib: post recv: %w", err)
		}
	}
	p.Sleep(qp.ctx.HCA.fab.Plat.PostCost(qp.ctx.Loc))
	qp.postedC.Inc()
	if qp.pending.Len() > 0 {
		in := qp.pending.Pop()
		qp.deliver(wr, wireSrc{buf: in.data}, in.srcQPN)
		return nil
	}
	qp.recvQueue.Push(wr)
	return nil
}

// land hands an arrived SEND payload to the oldest posted receive. With
// none posted — the simulator's RNR condition — it parks a copy of the
// bytes for the next PostRecv.
func (qp *QP) land(src wireSrc, srcQPN uint32) {
	if qp.recvQueue.Len() > 0 {
		qp.deliver(qp.recvQueue.Pop(), src, srcQPN)
		return
	}
	in := &inbound{srcQPN: srcQPN}
	if n := src.size(); n > 0 {
		in.data = make([]byte, n)
		src.copyTo(in.data)
	}
	qp.pending.Push(in)
}

// deliver scatters a SEND payload into a posted receive and completes
// it on the receive CQ at the current virtual time.
func (qp *QP) deliver(wr *RecvWR, src wireSrc, srcQPN uint32) {
	h := qp.ctx.HCA
	total := 0
	for _, sge := range wr.SGL {
		total += sge.Len
	}
	size := src.size()
	if size > total {
		qp.RecvCQ.push(CQE{WRID: wr.WRID, Status: StatusLocLenErr, Opcode: OpRecv, QPN: qp.QPN, SrcQPN: srcQPN})
		return
	}
	view, views := src.buf, src.more // the unread rest of one source element, and the elements after it
	rem := size
	for _, sge := range wr.SGL {
		if rem == 0 {
			break
		}
		n := sge.Len
		if n > rem {
			n = rem
		}
		dst, _, err := h.lookupMR(sge.LKey, sge.Addr, n)
		if err != nil {
			qp.RecvCQ.push(CQE{WRID: wr.WRID, Status: StatusLocProtErr, Opcode: OpRecv, QPN: qp.QPN, SrcQPN: srcQPN})
			return
		}
		rem -= n
		for len(dst) > 0 {
			if len(view) == 0 {
				view, views = views[0], views[1:]
			}
			c := copy(dst, view)
			dst, view = dst[c:], view[c:]
		}
	}
	qp.RecvCQ.push(CQE{WRID: wr.WRID, Status: StatusSuccess, Opcode: OpRecv, ByteLen: size, QPN: qp.QPN, SrcQPN: srcQPN})
}

// gather validates the local SGL and returns what the wire will carry —
// views of the registered source memory, or for an Inline post a capture
// of its bytes now — with the payload length, the slowest source-domain
// DMA read rate across elements and the memory kind of the first element
// (the telemetry source direction).
func (qp *QP) gather(wr *SendWR) (src wireSrc, n int, rate float64, srcKind machine.DomainKind, err error) {
	h := qp.ctx.HCA
	plat := h.fab.Plat
	rate = plat.HCAReadHost
	srcKind = machine.HostMem
	for _, sge := range wr.SGL {
		n += sge.Len
	}
	switch {
	case wr.Inline:
		src.buf = h.fab.captureBuf(n)
	case len(wr.SGL) > 1:
		src.more = make([][]byte, 0, len(wr.SGL))
	}
	for i, sge := range wr.SGL {
		view, mr, err := h.lookupMR(sge.LKey, sge.Addr, sge.Len)
		if err != nil {
			if wr.Inline {
				h.fab.releaseBuf(src.buf)
			}
			return wireSrc{}, 0, 0, srcKind, err
		}
		if i == 0 {
			srcKind = mr.Dom.Kind
		}
		if r := plat.HCARead(mr.Dom.Kind); r < rate {
			rate = r
		}
		switch {
		case wr.Inline:
			src.buf = append(src.buf, view...)
		case src.more != nil:
			src.more = append(src.more, view)
		default:
			src.buf = view
		}
	}
	return src, n, rate, srcKind, nil
}

// doneWith ends the wire's hold on a work request's source at arrival:
// an inline capture goes back to the free list. Like Remote, Inline is
// read from the posted WR, which is the HCA's until it completes.
func (qp *QP) doneWith(wr *SendWR, src wireSrc) {
	if wr.Inline {
		qp.ctx.HCA.fab.releaseBuf(src.buf)
	}
}

func minRate(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// capRate applies the QP's RateCap, if set.
func (qp *QP) capRate(r float64) float64 {
	if qp.RateCap > 0 {
		return minRate(r, qp.RateCap)
	}
	return r
}

// PostSend posts a send-queue work request. Validation errors (bad lkey,
// bad state) are returned synchronously like ibv_post_send; remote
// faults surface as error completions. Every work request it accepts
// rides one flight record, whose bound methods are its events; an
// injected fault is drawn here, at post time, and acted on at arrival.
func (qp *QP) PostSend(p *sim.Proc, wr *SendWR) error {
	h := qp.ctx.HCA
	eng, plat := h.fab.Eng, h.fab.Plat
	if qp.State != QPConnected {
		return fmt.Errorf("ib: post send on QP %#x in state %d", qp.QPN, qp.State)
	}
	rem := qp.remote
	p.Sleep(plat.PostCost(qp.ctx.Loc))
	qp.postedC.Inc()

	switch wr.Opcode {
	case OpSend:
		src, n, readRate, _, err := qp.gather(wr)
		if err != nil {
			return fmt.Errorf("ib: post send: %w", err)
		}
		if reg := h.fab.Metrics; reg != nil {
			if h.sendBytes == nil {
				h.sendBytes = reg.Counter(h.actor, "send.bytes")
			}
			h.sendBytes.Add(int64(n))
		}
		rate := qp.capRate(minRate(plat.IBBandwidth, minRate(readRate, plat.HCAWriteHost)))
		arrive := h.egress.ReserveRate(n, rate)
		arrive = h.deliverVia(arrive, rem.ctx.HCA, n, rate)
		f := h.fab.takeFlight(qp, wr, src, n)
		eng.At(arrive, f.onArrive)
		if wr.Signaled {
			eng.At(arrive+plat.IBLatency, f.onComplete)
		}
		return nil

	case OpRDMAWrite:
		src, n, readRate, srcKind, err := qp.gather(wr)
		if err != nil {
			return fmt.Errorf("ib: post send: %w", err)
		}
		// Peek the destination domain for the rate; re-validate keys at
		// arrival so a concurrent dereg still faults.
		writeRate := plat.HCAWriteHost
		dstKind := machine.HostMem
		if _, mr, err := rem.ctx.HCA.lookupMR(wr.Remote.RKey, wr.Remote.Addr, n); err == nil {
			writeRate = plat.HCAWrite(mr.Dom.Kind)
			dstKind = mr.Dom.Kind
		}
		var wsp *metrics.Span
		if reg := h.fab.Metrics; reg != nil {
			ps := h.pair(&h.writePairs, "rdma-write.bytes.", srcKind, dstKind)
			ps.bytes.Add(int64(n))
			wsp = reg.Begin(eng.Now(), h.actor, "wire.rdma-write").
				Attr("pair", ps.name).AttrInt("bytes", int64(n))
		}
		rate := qp.capRate(minRate(plat.IBBandwidth, minRate(readRate, writeRate)))
		arrive := h.egress.ReserveRate(n, rate)
		arrive = h.deliverVia(arrive, rem.ctx.HCA, n, rate)
		f := h.fab.takeFlight(qp, wr, src, n)
		f.span = wsp
		f.fault, f.delivered = h.fab.Faults.IBWriteFault()
		eng.At(arrive, f.onArrive)
		return nil

	case OpRDMARead:
		total := 0
		for _, sge := range wr.SGL {
			total += sge.Len
		}
		// Validate local scatter list now.
		writeRate := plat.HCAWriteHost
		dstKind := machine.HostMem
		for i, sge := range wr.SGL {
			_, mr, err := h.lookupMR(sge.LKey, sge.Addr, sge.Len)
			if err != nil {
				return fmt.Errorf("ib: post send (read): %w", err)
			}
			if i == 0 {
				dstKind = mr.Dom.Kind
			}
			if r := plat.HCAWrite(mr.Dom.Kind); r < writeRate {
				writeRate = r
			}
		}
		var wsp *metrics.Span
		if reg := h.fab.Metrics; reg != nil {
			wsp = reg.Begin(eng.Now(), h.actor, "wire.rdma-read").AttrInt("bytes", int64(total))
		}
		reqArrive := eng.Now() + plat.IBLatency + h.ctrlDelayTo(rem.ctx.HCA)
		f := h.fab.takeFlight(qp, wr, wireSrc{}, total)
		f.span, f.writeRate, f.dstKind = wsp, writeRate, dstKind
		f.fault = h.fab.Faults.IBReadFault()
		eng.At(reqArrive, f.onArrive)
		return nil

	default:
		return fmt.Errorf("ib: unsupported opcode %v", wr.Opcode)
	}
}
