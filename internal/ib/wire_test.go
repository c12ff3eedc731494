package ib

import (
	"bytes"
	"testing"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/sim"
)

// The data-path rows of the verbs conformance table: when a work
// request's source bytes are read. A posted buffer belongs to the HCA
// until its completion, so a plain WR carries the bytes the source holds
// when they land; an Inline WR carries the bytes it held at post time;
// and an inline capture goes back to the fabric's free list exactly once,
// after the last reader is done with it.

// wireRig is a connected host-memory QP pair with a three-element source
// (the packet layout: header, data, tail) on node 0 and one landing
// buffer on node 1, all registered.
type wireRig struct {
	*rig
	a, b     *endpoint
	src      [3]*machine.Buffer
	smr      [3]*MR
	dst      *machine.Buffer
	dmr      *MR
	postTime []byte // the source's bytes in SGL order as first filled
}

var wireLens = [3]int{16, 64, 8}

const wireTotal = 16 + 64 + 8

func newWireRig(t *testing.T) *wireRig {
	t.Helper()
	w := &wireRig{rig: newRig()}
	w.a = newEndpoint(w.h0, machine.HostMem)
	w.b = newEndpoint(w.h1, machine.HostMem)
	connect(t, w.a, w.b)
	for i, n := range wireLens {
		w.src[i] = w.n0.Host.Alloc(n)
		w.smr[i] = mustReg(t, w.a, w.src[i])
		for j := range w.src[i].Data {
			w.src[i].Data[j] = byte(0x10*(i+1) + j%16)
		}
		w.postTime = append(w.postTime, w.src[i].Data...)
	}
	w.dst = w.n1.Host.Alloc(wireTotal)
	w.dmr = mustReg(t, w.b, w.dst)
	return w
}

// mustReg registers b without charging time (the rows below are about
// the data path, not registration cost).
func mustReg(t testing.TB, e *endpoint, b *machine.Buffer) *MR {
	t.Helper()
	mr, err := e.ctx.HCA.regMR(e.pd, b.Dom, b.Addr, len(b.Data))
	if err != nil {
		t.Fatal(err)
	}
	return mr
}

// sgl is the three-element source list.
func (w *wireRig) sgl() []SGE {
	var out []SGE
	for i, b := range w.src {
		out = append(out, SGE{Addr: b.Addr, Len: len(b.Data), LKey: w.smr[i].LKey})
	}
	return out
}

// scribble rewrites every source byte and returns the new contents in
// SGL order.
func (w *wireRig) scribble(fill byte) []byte {
	var now []byte
	for _, b := range w.src {
		for j := range b.Data {
			b.Data[j] = fill
		}
		now = append(now, b.Data...)
	}
	return now
}

func (w *wireRig) landing() *RecvWR {
	return &RecvWR{WRID: 9, SGL: []SGE{{Addr: w.dst.Addr, Len: wireTotal, LKey: w.dmr.LKey}}}
}

func (w *wireRig) run(t *testing.T, body func(p *sim.Proc)) {
	t.Helper()
	w.eng.Spawn("post", body)
	if err := w.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// parked lists the QP's parked inbounds, oldest first, leaving the queue
// as it was.
func parked(qp *QP) []*inbound {
	var out []*inbound
	for i := qp.pending.Len(); i > 0; i-- {
		in := qp.pending.Pop()
		out = append(out, in)
		qp.pending.Push(in)
	}
	return out
}

// checkFreeList asserts the fabric's free list holds want captures, no
// capture twice (a double release would hand one buffer to two posts),
// and none that a parked inbound of the given QPs still references.
func checkFreeList(t *testing.T, f *Fabric, want int, qps ...*QP) {
	t.Helper()
	if got := len(f.inlineFree); got != want {
		t.Errorf("free list holds %d captures, want %d", got, want)
	}
	seen := map[*byte]bool{}
	for _, b := range f.inlineFree {
		k := &b[:1][0]
		if seen[k] {
			t.Error("one capture is on the free list twice")
		}
		seen[k] = true
	}
	for _, qp := range qps {
		for _, in := range parked(qp) {
			if len(in.data) > 0 && seen[&in.data[0]] {
				t.Error("a parked inbound references a capture on the free list")
			}
		}
	}
}

// TestWireSourceReadTime: the source is scribbled between post and
// arrival. Inline delivers the post-time bytes, a plain WR the
// delivery-time bytes, in SGL order either way.
func TestWireSourceReadTime(t *testing.T) {
	for _, row := range []struct {
		name   string
		op     Opcode
		inline bool
	}{
		{"write inline", OpRDMAWrite, true},
		{"write", OpRDMAWrite, false},
		{"send inline", OpSend, true},
		{"send", OpSend, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			w := newWireRig(t)
			var want []byte
			w.run(t, func(p *sim.Proc) {
				if row.op == OpSend {
					if err := w.b.qp.PostRecv(p, w.landing()); err != nil {
						t.Error(err)
						return
					}
				}
				err := w.a.qp.PostSend(p, &SendWR{WRID: 1, Opcode: row.op, Signaled: true, Inline: row.inline,
					SGL: w.sgl(), Remote: RemoteAddr{Addr: w.dmr.Addr, RKey: w.dmr.RKey}})
				if err != nil {
					t.Error(err)
					return
				}
				want = w.scribble(0xEE)
				if row.inline {
					want = w.postTime
				}
				if cqe := w.a.cq.WaitPoll(p, 1)[0]; cqe.Status != StatusSuccess || cqe.ByteLen != wireTotal {
					t.Errorf("send completion %+v", cqe)
				}
				if row.op == OpSend {
					if cqe := w.b.cq.WaitPoll(p, 1)[0]; cqe.Status != StatusSuccess || cqe.ByteLen != wireTotal {
						t.Errorf("receive completion %+v", cqe)
					}
				}
			})
			if !bytes.Equal(w.dst.Data, want) {
				t.Errorf("delivered % x\nwant      % x", w.dst.Data, want)
			}
			captures := 0
			if row.inline {
				captures = 1
			}
			checkFreeList(t, w.h0.fab, captures)
		})
	}
}

// TestWireReadResponderReadsAtResponse: the responder's memory is
// scribbled after the read was posted; the requester's scatter list
// receives the bytes the source holds when the response lands.
func TestWireReadResponderReadsAtResponse(t *testing.T) {
	w := newWireRig(t)
	remote := w.n1.Host.Alloc(wireTotal)
	rmr := mustReg(t, w.b, remote)
	copy(remote.Data, w.postTime)
	w.run(t, func(p *sim.Proc) {
		err := w.a.qp.PostSend(p, &SendWR{WRID: 1, Opcode: OpRDMARead, Signaled: true,
			SGL: w.sgl(), Remote: RemoteAddr{Addr: rmr.Addr, RKey: rmr.RKey}})
		if err != nil {
			t.Error(err)
			return
		}
		for j := range remote.Data {
			remote.Data[j] = byte(j) | 0x80
		}
		if cqe := w.a.cq.WaitPoll(p, 1)[0]; cqe.Status != StatusSuccess || cqe.ByteLen != wireTotal {
			t.Errorf("read completion %+v", cqe)
		}
	})
	var got []byte
	for _, b := range w.src {
		got = append(got, b.Data...)
	}
	if !bytes.Equal(got, remote.Data) {
		t.Errorf("scattered % x\nwant      % x", got, remote.Data)
	}
	checkFreeList(t, w.h0.fab, 0)
}

// TestWireGatherShapes: gather order and length accounting are the same
// for a single view, a list of views, an inline capture, zero-length
// elements and an empty payload, scattered into a receive list whose
// element boundaries do not line up with the source's.
func TestWireGatherShapes(t *testing.T) {
	for _, row := range []struct {
		name   string
		lens   []int
		inline bool
	}{
		{"one element", []int{40}, false},
		{"three elements", []int{16, 64, 8}, false},
		{"five elements", []int{3, 17, 1, 40, 9}, false},
		{"five elements inline", []int{3, 17, 1, 40, 9}, true},
		{"zero-length element", []int{8, 0, 8}, false},
		{"zero-length element inline", []int{8, 0, 8}, true},
		{"empty payload", []int{0}, false},
		{"empty payload inline", []int{0}, true},
		{"no elements", nil, false},
	} {
		for _, op := range []Opcode{OpRDMAWrite, OpSend} {
			t.Run(row.name+"/"+op.String(), func(t *testing.T) {
				r := newRig()
				a, b := newEndpoint(r.h0, machine.HostMem), newEndpoint(r.h1, machine.HostMem)
				connect(t, a, b)
				arena := r.n0.Host.Alloc(256)
				amr := mustReg(t, a, arena)
				var sgl []SGE
				var want []byte
				off := 0
				for i, n := range row.lens {
					for j := 0; j < n; j++ {
						arena.Data[off+j] = byte(0x20*(i+1) + j)
					}
					sgl = append(sgl, SGE{Addr: arena.Addr + uint64(off), Len: n, LKey: amr.LKey})
					want = append(want, arena.Data[off:off+n]...)
					off += n + 5 // gaps: the elements are not contiguous
				}
				dst := r.n1.Host.Alloc(128)
				dmr := mustReg(t, b, dst)
				r.eng.Spawn("post", func(p *sim.Proc) {
					if op == OpSend {
						// Two receive elements split mid-way through the payload.
						rwr := &RecvWR{WRID: 2, SGL: []SGE{
							{Addr: dst.Addr, Len: 10, LKey: dmr.LKey},
							{Addr: dst.Addr + 10, Len: 118, LKey: dmr.LKey},
						}}
						if err := b.qp.PostRecv(p, rwr); err != nil {
							t.Error(err)
							return
						}
					}
					err := a.qp.PostSend(p, &SendWR{WRID: 1, Opcode: op, Signaled: true, Inline: row.inline,
						SGL: sgl, Remote: RemoteAddr{Addr: dmr.Addr, RKey: dmr.RKey}})
					if err != nil {
						t.Error(err)
						return
					}
					if cqe := a.cq.WaitPoll(p, 1)[0]; cqe.Status != StatusSuccess || cqe.ByteLen != len(want) {
						t.Errorf("send completion %+v, want %d bytes", cqe, len(want))
					}
					if op == OpSend {
						if cqe := b.cq.WaitPoll(p, 1)[0]; cqe.Status != StatusSuccess || cqe.ByteLen != len(want) {
							t.Errorf("receive completion %+v, want %d bytes", cqe, len(want))
						}
					}
				})
				if err := r.eng.Run(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(dst.Data[:len(want)], want) {
					t.Errorf("delivered % x\nwant      % x", dst.Data[:len(want)], want)
				}
				for _, c := range dst.Data[len(want):] {
					if c != 0 {
						t.Fatal("bytes landed past the payload")
					}
				}
			})
		}
	}
}

// TestWireRNRParksItsOwnCopy: a SEND that finds no posted receive is
// parked with the bytes it carried at arrival. Its send completion has
// fired, so the source may be rewritten — and an inline capture reused
// by later posts — before the receive shows up.
func TestWireRNRParksItsOwnCopy(t *testing.T) {
	for _, inline := range []bool{false, true} {
		name := "plain"
		if inline {
			name = "inline"
		}
		t.Run(name, func(t *testing.T) {
			w := newWireRig(t)
			scratch := w.n1.Host.Alloc(wireTotal)
			xmr := mustReg(t, w.b, scratch)
			captures := 0
			if inline {
				captures = 1
			}
			w.run(t, func(p *sim.Proc) {
				err := w.a.qp.PostSend(p, &SendWR{WRID: 1, Opcode: OpSend, Signaled: true, Inline: inline, SGL: w.sgl()})
				if err != nil {
					t.Error(err)
					return
				}
				if cqe := w.a.cq.WaitPoll(p, 1)[0]; cqe.Status != StatusSuccess {
					t.Errorf("send completion %+v", cqe)
				}
				if n := w.b.qp.pending.Len(); n != 1 {
					t.Errorf("%d SENDs parked: the SEND was not parked", n)
				}
				checkFreeList(t, w.h0.fab, captures, w.b.qp)
				// The sender owns its buffer again; later inline traffic
				// takes whatever the free list holds.
				w.scribble(0xEE)
				for i := 0; i < 3; i++ {
					err := w.a.qp.PostSend(p, &SendWR{WRID: 2, Opcode: OpRDMAWrite, Signaled: true, Inline: true,
						SGL: w.sgl(), Remote: RemoteAddr{Addr: xmr.Addr, RKey: xmr.RKey}})
					if err != nil {
						t.Error(err)
						return
					}
					w.a.cq.WaitPoll(p, 1)
				}
				if err := w.b.qp.PostRecv(p, w.landing()); err != nil {
					t.Error(err)
					return
				}
				if cqe := w.b.cq.WaitPoll(p, 1)[0]; cqe.Status != StatusSuccess || cqe.ByteLen != wireTotal {
					t.Errorf("receive completion %+v", cqe)
				}
			})
			if !bytes.Equal(w.dst.Data, w.postTime) {
				t.Errorf("delivered % x\nwant      % x", w.dst.Data, w.postTime)
			}
			checkFreeList(t, w.h0.fab, 1, w.b.qp)
		})
	}
}

// checkFlightPool asserts the fabric's flight pool holds want records,
// none twice, each reset to nothing but its bound callbacks.
func checkFlightPool(t *testing.T, f *Fabric, want int) {
	t.Helper()
	if got := len(f.flightFree); got != want {
		t.Errorf("flight pool holds %d records, want %d", got, want)
	}
	seen := map[*flight]bool{}
	for _, x := range f.flightFree {
		if seen[x] {
			t.Error("one flight is on the pool twice")
		}
		seen[x] = true
		if x.qp != nil || x.rem != nil || x.wr != nil || x.span != nil || x.src.buf != nil || x.src.more != nil ||
			x.fault || x.delivered || x.errQP || x.status != StatusSuccess || x.onArrive == nil {
			t.Errorf("a pooled flight was not reset: %+v", *x)
		}
	}
}

// TestWireErrorArmsReleaseOnce: every way a work request can end —
// delivered, remote or local protection fault, injected retry exhaustion
// with and without the payload landing — returns its flight record, and
// an inline WRITE's capture, exactly once and only after the last reader;
// and SetError/Reset over parked inbounds release nothing a second time.
func TestWireErrorArmsReleaseOnce(t *testing.T) {
	for _, row := range []struct {
		name       string
		op         Opcode
		plan       *faults.Plan
		badRKey    bool
		deregLocal bool // the local region goes between post and response
		wantSt     Status
		delivered  bool
	}{
		{name: "delivered", op: OpRDMAWrite, wantSt: StatusSuccess, delivered: true},
		{name: "remote access error", op: OpRDMAWrite, badRKey: true, wantSt: StatusRemAccessErr},
		{name: "fault, payload landed", op: OpRDMAWrite, plan: &faults.Plan{IBError: 1, IBDelivered: 1}, wantSt: StatusRetryExcErr, delivered: true},
		{name: "fault, payload lost", op: OpRDMAWrite, plan: &faults.Plan{IBError: 1, IBDelivered: 0}, wantSt: StatusRetryExcErr},
		{name: "read", op: OpRDMARead, wantSt: StatusSuccess},
		{name: "read, remote access error", op: OpRDMARead, badRKey: true, wantSt: StatusRemAccessErr},
		{name: "read, local protection error", op: OpRDMARead, deregLocal: true, wantSt: StatusLocProtErr},
		{name: "read fault", op: OpRDMARead, plan: &faults.Plan{IBError: 1}, wantSt: StatusRetryExcErr},
	} {
		t.Run(row.name, func(t *testing.T) {
			w := newWireRig(t)
			w.h0.fab.Faults = faults.New(w.eng, row.plan)
			remote := RemoteAddr{Addr: w.dmr.Addr, RKey: w.dmr.RKey}
			if row.badRKey {
				remote.RKey++
			}
			captures := 0
			if row.op == OpRDMAWrite {
				captures = 2 // the rows' writes are inline
			}
			w.run(t, func(p *sim.Proc) {
				// Two in flight at once: two records (and captures), both
				// must come back.
				for id := uint64(1); id <= 2; id++ {
					err := w.a.qp.PostSend(p, &SendWR{WRID: id, Opcode: row.op, Signaled: true, Inline: row.op == OpRDMAWrite,
						SGL: w.sgl(), Remote: remote})
					if err != nil {
						t.Error(err)
						return
					}
				}
				if row.deregLocal {
					if err := w.h0.deregMR(w.smr[1]); err != nil {
						t.Error(err)
					}
				}
				w.scribble(0xEE)
				for i := 0; i < 2; i++ {
					if cqe := w.a.cq.WaitPoll(p, 1)[0]; cqe.Status != row.wantSt {
						t.Errorf("completion %+v, want status %v", cqe, row.wantSt)
					}
				}
			})
			if row.op == OpRDMAWrite {
				want := make([]byte, wireTotal)
				if row.delivered {
					want = w.postTime
				}
				if !bytes.Equal(w.dst.Data, want) {
					t.Errorf("destination % x\nwant        % x", w.dst.Data, want)
				}
			}
			checkFreeList(t, w.h0.fab, captures)
			checkFlightPool(t, w.h0.fab, 2)
		})
	}

	for _, teardown := range []struct {
		name string
		do   func(qp *QP)
	}{
		{"SetError", (*QP).SetError},
		{"Reset", (*QP).Reset},
	} {
		t.Run(teardown.name+" over parked inbound", func(t *testing.T) {
			w := newWireRig(t)
			w.run(t, func(p *sim.Proc) {
				for id := uint64(1); id <= 2; id++ {
					err := w.a.qp.PostSend(p, &SendWR{WRID: id, Opcode: OpSend, Signaled: true, Inline: true, SGL: w.sgl()})
					if err != nil {
						t.Error(err)
						return
					}
				}
				w.a.cq.WaitPoll(p, 1)
				w.a.cq.WaitPoll(p, 1)
				if n := w.b.qp.pending.Len(); n != 2 {
					t.Errorf("%d inbounds parked, want 2", n)
				}
				dropped := parked(w.b.qp)
				checkFreeList(t, w.h0.fab, 2, w.b.qp)
				teardown.do(w.b.qp)
				// The dropped inbounds were their own copies: the captures
				// on the free list are reusable and nothing was released a
				// second time.
				for _, in := range dropped {
					if !bytes.Equal(in.data, w.postTime) {
						t.Error("a dropped inbound's bytes changed")
					}
				}
				checkFreeList(t, w.h0.fab, 2)
			})
		})
	}
}

// TestWireBadLKeyReturnsCapture: an inline post that fails validation
// part-way through its SGL hands the capture it had taken back.
func TestWireBadLKeyReturnsCapture(t *testing.T) {
	w := newWireRig(t)
	w.run(t, func(p *sim.Proc) {
		remote := RemoteAddr{Addr: w.dmr.Addr, RKey: w.dmr.RKey}
		good := &SendWR{WRID: 1, Opcode: OpRDMAWrite, Signaled: true, Inline: true, SGL: w.sgl(), Remote: remote}
		if err := w.a.qp.PostSend(p, good); err != nil {
			t.Error(err)
			return
		}
		w.a.cq.WaitPoll(p, 1)
		checkFreeList(t, w.h0.fab, 1)
		bad := w.sgl()
		bad[2].LKey += 100
		for _, op := range []Opcode{OpRDMAWrite, OpSend} {
			err := w.a.qp.PostSend(p, &SendWR{WRID: 2, Opcode: op, Inline: true, SGL: bad, Remote: remote})
			if err == nil {
				t.Errorf("%v: post accepted an unregistered lkey", op)
			}
			checkFreeList(t, w.h0.fab, 1)
		}
	})
}

// TestWireFailedWRCompletesUnsignaled: verbs always generate the
// completion of a failed work request, signaled or not — an unsignaled
// poster must learn why its QP went to Error. Each way the wire can fail
// an unsignaled WR yields exactly one error completion.
func TestWireFailedWRCompletesUnsignaled(t *testing.T) {
	for _, row := range []struct {
		name    string
		op      Opcode
		plan    *faults.Plan
		badRKey bool
		wantSt  Status
	}{
		{"bad rkey write", OpRDMAWrite, nil, true, StatusRemAccessErr},
		{"faulted write, payload landed", OpRDMAWrite, &faults.Plan{IBError: 1, IBDelivered: 1}, false, StatusRetryExcErr},
		{"faulted write, payload lost", OpRDMAWrite, &faults.Plan{IBError: 1, IBDelivered: 0}, false, StatusRetryExcErr},
		{"faulted read", OpRDMARead, &faults.Plan{IBError: 1}, false, StatusRetryExcErr},
	} {
		t.Run(row.name, func(t *testing.T) {
			w := newWireRig(t)
			w.h0.fab.Faults = faults.New(w.eng, row.plan)
			remote := RemoteAddr{Addr: w.dmr.Addr, RKey: w.dmr.RKey}
			if row.badRKey {
				remote.RKey++
			}
			w.run(t, func(p *sim.Proc) {
				if err := w.a.qp.PostSend(p, &SendWR{WRID: 1, Opcode: row.op, SGL: w.sgl(), Remote: remote}); err != nil {
					t.Error(err)
					return
				}
				p.Sleep(100 * sim.Microsecond)
				cqes := w.a.cq.Poll(p, 8)
				if len(cqes) != 1 || cqes[0].WRID != 1 || cqes[0].Status != row.wantSt {
					t.Errorf("completions %+v, want exactly one with status %v", cqes, row.wantSt)
				}
				if w.a.qp.State != QPError {
					t.Errorf("QP state %v, want QPError", w.a.qp.State)
				}
			})
			checkFlightPool(t, w.h0.fab, 1)
		})
	}
}
