package ib

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

// The send-queue rows of the verbs conformance table: an RC QP completes
// its send queue in order, and once it errors every WR still on the wire
// or posted before it is reset completes WR_FLUSH_ERR behind the error
// and sends nothing.

// settle sleeps past every event the rig's posts scheduled and returns
// every completion the requester's CQ holds, in order.
func (w *wireRig) settle(p *sim.Proc) []CQE {
	p.Sleep(100 * sim.Microsecond)
	return w.a.cq.Poll(p, 16)
}

// checkCQEs asserts the completions are exactly want, as WR ids and
// statuses in order.
func checkCQEs(t *testing.T, got []CQE, want ...CQE) {
	t.Helper()
	pairs := func(es []CQE) (out []string) {
		for _, e := range es {
			out = append(out, fmt.Sprintf("%d:%v", e.WRID, e.Status))
		}
		return out
	}
	if g, w := pairs(got), pairs(want); !slices.Equal(g, w) {
		t.Errorf("completions %v, want %v", g, w)
	}
}

// checkUntouched asserts no byte landed in the rig's destination.
func (w *wireRig) checkUntouched(t *testing.T) {
	t.Helper()
	if !bytes.Equal(w.dst.Data, make([]byte, wireTotal)) {
		t.Errorf("destination % x, want untouched", w.dst.Data)
	}
}

// TestFlushBehindError: a WRITE with a bad rkey and then a good WRITE on
// the same QP. The good one reaches the responder before the first one's
// error completes, lands nothing and completes WR_FLUSH_ERR behind it,
// although it did not ask for a completion.
func TestFlushBehindError(t *testing.T) {
	w := newWireRig(t)
	good := RemoteAddr{Addr: w.dmr.Addr, RKey: w.dmr.RKey}
	bad := RemoteAddr{Addr: w.dmr.Addr, RKey: w.dmr.RKey + 1}
	w.run(t, func(p *sim.Proc) {
		for _, wr := range []*SendWR{
			{WRID: 1, Opcode: OpRDMAWrite, Signaled: true, SGL: w.sgl(), Remote: bad},
			{WRID: 2, Opcode: OpRDMAWrite, SGL: w.sgl(), Remote: good},
		} {
			if err := w.a.qp.PostSend(p, wr); err != nil {
				t.Error(err)
				return
			}
		}
		checkCQEs(t, w.settle(p), CQE{WRID: 1, Status: StatusRemAccessErr}, CQE{WRID: 2, Status: StatusWRFlushErr})
		if w.a.qp.State != QPError {
			t.Errorf("QP state %v, want QPError", w.a.qp.State)
		}
	})
	w.checkUntouched(t)
	checkFlightPool(t, w.h0.fab, 2)
}

// TestPostToErroredQPFlushes: a post to a QP in the error state is
// accepted, completes WR_FLUSH_ERR at once and puts nothing on the wire,
// whatever its opcode; a post to a QP in Reset is refused.
func TestPostToErroredQPFlushes(t *testing.T) {
	w := newWireRig(t)
	remote := RemoteAddr{Addr: w.dmr.Addr, RKey: w.dmr.RKey}
	w.run(t, func(p *sim.Proc) {
		if err := w.b.qp.PostRecv(p, w.landing()); err != nil {
			t.Error(err)
			return
		}
		w.a.qp.SetError()
		for i, op := range []Opcode{OpRDMAWrite, OpSend, OpRDMARead} {
			id := uint64(i + 1)
			if err := w.a.qp.PostSend(p, &SendWR{WRID: id, Opcode: op, SGL: w.sgl(), Remote: remote}); err != nil {
				t.Errorf("%v: post to an errored QP: %v", op, err)
			}
			if got := w.a.cq.Poll(p, 4); len(got) != 1 || got[0].WRID != id || got[0].Status != StatusWRFlushErr || got[0].Opcode != op {
				t.Errorf("%v: completions %+v, want one WR_FLUSH_ERR for WR %d", op, got, id)
			}
		}
		checkCQEs(t, w.settle(p))
		if n := w.b.cq.Poll(p, 4); len(n) != 0 {
			t.Errorf("the responder completed %+v", n)
		}
		w.a.qp.Reset()
		if err := w.a.qp.PostSend(p, &SendWR{WRID: 9, Opcode: OpRDMAWrite, SGL: w.sgl(), Remote: remote}); err == nil {
			t.Error("a post to a QP in Reset was accepted")
		}
	})
	if w.a.qp.posts != 0 {
		t.Errorf("%d WRs went on the wire, want none", w.a.qp.posts)
	}
	w.checkUntouched(t)
	checkFlightPool(t, w.h0.fab, 0)
}

// TestPostErroredDuringPostCost: another process errors the QP while the
// poster pays its post cost. The state is read once the cost is paid, so
// the WR is flushed, not sent.
func TestPostErroredDuringPostCost(t *testing.T) {
	w := newWireRig(t)
	w.eng.Spawn("breaker", func(p *sim.Proc) {
		p.Sleep(w.plat.PostCost(w.a.ctx.Loc) / 3)
		w.a.qp.SetError()
	})
	w.run(t, func(p *sim.Proc) {
		err := w.a.qp.PostSend(p, &SendWR{WRID: 1, Opcode: OpRDMAWrite, Signaled: true, SGL: w.sgl(),
			Remote: RemoteAddr{Addr: w.dmr.Addr, RKey: w.dmr.RKey}})
		if err != nil {
			t.Error(err)
			return
		}
		checkCQEs(t, w.settle(p), CQE{WRID: 1, Status: StatusWRFlushErr})
	})
	if w.a.qp.posts != 0 {
		t.Errorf("%d WRs went on the wire, want none", w.a.qp.posts)
	}
	w.checkUntouched(t)
}

// TestFlushedFaultStillReports: a WRITE that drew an injected fault is
// flushed by an earlier WR's error before its own fault acts. It still
// completes RetryExcErr, so that every injected fault is reported once,
// and its payload, drawn as delivered, does not land.
func TestFlushedFaultStillReports(t *testing.T) {
	w := newWireRig(t)
	inj := faults.New(w.eng, &faults.Plan{IBError: 1, IBDelivered: 1})
	w.run(t, func(p *sim.Proc) {
		bad := &SendWR{WRID: 1, Opcode: OpRDMAWrite, Signaled: true, SGL: w.sgl(), Remote: RemoteAddr{Addr: w.dmr.Addr, RKey: w.dmr.RKey + 1}}
		if err := w.a.qp.PostSend(p, bad); err != nil {
			t.Error(err)
			return
		}
		w.h0.fab.Faults = inj
		faulted := &SendWR{WRID: 2, Opcode: OpRDMAWrite, Signaled: true, SGL: w.sgl(), Remote: RemoteAddr{Addr: w.dmr.Addr, RKey: w.dmr.RKey}}
		if err := w.a.qp.PostSend(p, faulted); err != nil {
			t.Error(err)
			return
		}
		checkCQEs(t, w.settle(p), CQE{WRID: 1, Status: StatusRemAccessErr}, CQE{WRID: 2, Status: StatusRetryExcErr})
	})
	if inj.IBFaults != 1 {
		t.Errorf("%d faults drawn, want 1", inj.IBFaults)
	}
	w.checkUntouched(t)
	checkFlightPool(t, w.h0.fab, 2)
}
