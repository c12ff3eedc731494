package ib

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// rig is a two-node test fabric with one connected QP pair.
type rig struct {
	eng    *sim.Engine
	plat   *perfmodel.Platform
	n0, n1 *machine.Node
	h0, h1 *HCA
}

func newRig() *rig {
	eng := sim.NewEngine()
	plat := perfmodel.Default()
	f := NewFabric(eng, plat)
	n0, n1 := machine.NewNode(0), machine.NewNode(1)
	return &rig{eng: eng, plat: plat, n0: n0, n1: n1, h0: f.AttachHCA(n0), h1: f.AttachHCA(n1)}
}

// endpoint bundles the common verbs objects for one side.
type endpoint struct {
	ctx *Context
	pd  *PD
	cq  *CQ
	qp  *QP
}

func newEndpoint(h *HCA, loc machine.DomainKind) *endpoint {
	ctx := h.Open(loc)
	pd := ctx.AllocPD()
	cq := ctx.CreateCQ(1024)
	qp := ctx.CreateQP(pd, cq, cq)
	return &endpoint{ctx: ctx, pd: pd, cq: cq, qp: qp}
}

func connect(t *testing.T, a, b *endpoint) {
	t.Helper()
	if err := ConnectPair(a.qp, b.qp); err != nil {
		t.Fatal(err)
	}
}

func TestRDMAWriteMovesBytes(t *testing.T) {
	r := newRig()
	a := newEndpoint(r.h0, machine.HostMem)
	b := newEndpoint(r.h1, machine.HostMem)
	connect(t, a, b)
	src := r.n0.Host.Alloc(1024)
	dst := r.n1.Host.Alloc(1024)
	for i := range src.Data {
		src.Data[i] = byte(i ^ 0x5A)
	}
	r.eng.Spawn("writer", func(p *sim.Proc) {
		smr, err := a.ctx.RegMRBuffer(p, a.pd, src)
		if err != nil {
			t.Error(err)
			return
		}
		dmr, err := b.ctx.RegMRBuffer(p, b.pd, dst)
		if err != nil {
			t.Error(err)
			return
		}
		err = a.qp.PostSend(p, &SendWR{
			WRID: 1, Opcode: OpRDMAWrite, Signaled: true,
			SGL:    []SGE{{Addr: src.Addr, Len: 1024, LKey: smr.LKey}},
			Remote: RemoteAddr{Addr: dmr.Addr, RKey: dmr.RKey},
		})
		if err != nil {
			t.Error(err)
			return
		}
		cqes := a.cq.WaitPoll(p, 1)
		if cqes[0].Status != StatusSuccess || cqes[0].ByteLen != 1024 {
			t.Errorf("completion %+v", cqes[0])
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Data, src.Data) {
		t.Fatal("RDMA write did not move bytes")
	}
}

func TestRDMAWriteSGEOrderPreserved(t *testing.T) {
	// The eager protocol depends on header+data+tail landing in SGE
	// order in contiguous remote memory.
	r := newRig()
	a := newEndpoint(r.h0, machine.MicMem)
	b := newEndpoint(r.h1, machine.MicMem)
	connect(t, a, b)
	hdr := r.n0.Mic.Alloc(16)
	data := r.n0.Mic.Alloc(64)
	tail := r.n0.Mic.Alloc(8)
	dst := r.n1.Mic.Alloc(16 + 64 + 8)
	for i := range hdr.Data {
		hdr.Data[i] = 0xAA
	}
	for i := range data.Data {
		data.Data[i] = 0xBB
	}
	for i := range tail.Data {
		tail.Data[i] = 0xCC
	}
	r.eng.Spawn("writer", func(p *sim.Proc) {
		m1, _ := a.ctx.RegMRBuffer(p, a.pd, hdr)
		m2, _ := a.ctx.RegMRBuffer(p, a.pd, data)
		m3, _ := a.ctx.RegMRBuffer(p, a.pd, tail)
		dm, _ := b.ctx.RegMRBuffer(p, b.pd, dst)
		err := a.qp.PostSend(p, &SendWR{
			WRID: 2, Opcode: OpRDMAWrite, Signaled: true,
			SGL: []SGE{
				{Addr: hdr.Addr, Len: 16, LKey: m1.LKey},
				{Addr: data.Addr, Len: 64, LKey: m2.LKey},
				{Addr: tail.Addr, Len: 8, LKey: m3.LKey},
			},
			Remote: RemoteAddr{Addr: dm.Addr, RKey: dm.RKey},
		})
		if err != nil {
			t.Error(err)
			return
		}
		a.cq.WaitPoll(p, 1)
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if dst.Data[i] != 0xAA {
			t.Fatalf("header byte %d = %#x", i, dst.Data[i])
		}
	}
	for i := 16; i < 80; i++ {
		if dst.Data[i] != 0xBB {
			t.Fatalf("data byte %d = %#x", i, dst.Data[i])
		}
	}
	for i := 80; i < 88; i++ {
		if dst.Data[i] != 0xCC {
			t.Fatalf("tail byte %d = %#x", i, dst.Data[i])
		}
	}
}

func TestSendRecvMatching(t *testing.T) {
	r := newRig()
	a := newEndpoint(r.h0, machine.HostMem)
	b := newEndpoint(r.h1, machine.HostMem)
	connect(t, a, b)
	src := r.n0.Host.Alloc(256)
	dst := r.n1.Host.Alloc(256)
	for i := range src.Data {
		src.Data[i] = byte(i)
	}
	r.eng.Spawn("recv", func(p *sim.Proc) {
		dmr, _ := b.ctx.RegMRBuffer(p, b.pd, dst)
		if err := b.qp.PostRecv(p, &RecvWR{WRID: 7, SGL: []SGE{{Addr: dst.Addr, Len: 256, LKey: dmr.LKey}}}); err != nil {
			t.Error(err)
			return
		}
		cqes := b.cq.WaitPoll(p, 1)
		e := cqes[0]
		if e.Status != StatusSuccess || e.Opcode != OpRecv || e.ByteLen != 256 || e.WRID != 7 {
			t.Errorf("recv completion %+v", e)
		}
		if !e.HasImm || e.Imm != 0xFEED {
			t.Errorf("imm not delivered: %+v", e)
		}
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond) // let the recv post first
		smr, _ := a.ctx.RegMRBuffer(p, a.pd, src)
		err := a.qp.PostSend(p, &SendWR{
			WRID: 8, Opcode: OpSendImm, Imm: 0xFEED, Signaled: true,
			SGL: []SGE{{Addr: src.Addr, Len: 256, LKey: smr.LKey}},
		})
		if err != nil {
			t.Error(err)
			return
		}
		a.cq.WaitPoll(p, 1)
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Data, src.Data) {
		t.Fatal("send/recv payload mismatch")
	}
}

func TestSendBeforeRecvIsRNRQueued(t *testing.T) {
	r := newRig()
	a := newEndpoint(r.h0, machine.HostMem)
	b := newEndpoint(r.h1, machine.HostMem)
	connect(t, a, b)
	src := r.n0.Host.Alloc(32)
	dst := r.n1.Host.Alloc(32)
	src.Data[0] = 0x77
	r.eng.Spawn("send", func(p *sim.Proc) {
		smr, _ := a.ctx.RegMRBuffer(p, a.pd, src)
		a.qp.PostSend(p, &SendWR{WRID: 1, Opcode: OpSend, SGL: []SGE{{Addr: src.Addr, Len: 32, LKey: smr.LKey}}})
	})
	r.eng.Spawn("recv", func(p *sim.Proc) {
		p.Sleep(50 * sim.Microsecond) // post long after arrival
		if n := b.qp.pending.Len(); n != 1 {
			t.Errorf("%d SENDs parked before the late PostRecv, want 1", n)
		}
		dmr, _ := b.ctx.RegMRBuffer(p, b.pd, dst)
		b.qp.PostRecv(p, &RecvWR{WRID: 2, SGL: []SGE{{Addr: dst.Addr, Len: 32, LKey: dmr.LKey}}})
		cqes := b.cq.WaitPoll(p, 1)
		if cqes[0].Status != StatusSuccess {
			t.Errorf("completion %+v", cqes[0])
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if dst.Data[0] != 0x77 {
		t.Fatal("late-posted recv did not get data")
	}
}

func TestSendTruncationErrorCompletion(t *testing.T) {
	r := newRig()
	a := newEndpoint(r.h0, machine.HostMem)
	b := newEndpoint(r.h1, machine.HostMem)
	connect(t, a, b)
	src := r.n0.Host.Alloc(128)
	dst := r.n1.Host.Alloc(64) // too small
	r.eng.Spawn("recv", func(p *sim.Proc) {
		dmr, _ := b.ctx.RegMRBuffer(p, b.pd, dst)
		b.qp.PostRecv(p, &RecvWR{WRID: 3, SGL: []SGE{{Addr: dst.Addr, Len: 64, LKey: dmr.LKey}}})
		cqes := b.cq.WaitPoll(p, 1)
		if cqes[0].Status != StatusLocLenErr {
			t.Errorf("want LOC_LEN_ERR, got %v", cqes[0].Status)
		}
	})
	r.eng.Spawn("send", func(p *sim.Proc) {
		p.Sleep(5 * sim.Microsecond)
		smr, _ := a.ctx.RegMRBuffer(p, a.pd, src)
		a.qp.PostSend(p, &SendWR{WRID: 4, Opcode: OpSend, SGL: []SGE{{Addr: src.Addr, Len: 128, LKey: smr.LKey}}})
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBadLKeyRejectedAtPost(t *testing.T) {
	r := newRig()
	a := newEndpoint(r.h0, machine.HostMem)
	b := newEndpoint(r.h1, machine.HostMem)
	connect(t, a, b)
	src := r.n0.Host.Alloc(16)
	r.eng.Spawn("send", func(p *sim.Proc) {
		err := a.qp.PostSend(p, &SendWR{WRID: 1, Opcode: OpRDMAWrite,
			SGL: []SGE{{Addr: src.Addr, Len: 16, LKey: 0xDEAD}}})
		if err == nil {
			t.Error("post with bad lkey succeeded")
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBadRKeyErrorCompletion(t *testing.T) {
	r := newRig()
	a := newEndpoint(r.h0, machine.HostMem)
	b := newEndpoint(r.h1, machine.HostMem)
	connect(t, a, b)
	src := r.n0.Host.Alloc(16)
	r.eng.Spawn("send", func(p *sim.Proc) {
		smr, _ := a.ctx.RegMRBuffer(p, a.pd, src)
		err := a.qp.PostSend(p, &SendWR{WRID: 9, Opcode: OpRDMAWrite, Signaled: true,
			SGL:    []SGE{{Addr: src.Addr, Len: 16, LKey: smr.LKey}},
			Remote: RemoteAddr{Addr: 0x1000, RKey: 0xBEEF}})
		if err != nil {
			t.Error(err)
			return
		}
		cqes := a.cq.WaitPoll(p, 1)
		if cqes[0].Status != StatusRemAccessErr {
			t.Errorf("want REM_ACCESS_ERR, got %v", cqes[0].Status)
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if a.qp.State != QPError {
		t.Fatal("QP not in error state after remote fault")
	}
}

func TestPostSendOnUnconnectedQPFails(t *testing.T) {
	r := newRig()
	a := newEndpoint(r.h0, machine.HostMem)
	src := r.n0.Host.Alloc(16)
	r.eng.Spawn("send", func(p *sim.Proc) {
		smr, _ := a.ctx.RegMRBuffer(p, a.pd, src)
		err := a.qp.PostSend(p, &SendWR{Opcode: OpSend, SGL: []SGE{{Addr: src.Addr, Len: 16, LKey: smr.LKey}}})
		if err == nil {
			t.Error("post on RESET QP succeeded")
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeregMRFaultsLaterAccess(t *testing.T) {
	r := newRig()
	a := newEndpoint(r.h0, machine.HostMem)
	b := newEndpoint(r.h1, machine.HostMem)
	connect(t, a, b)
	src := r.n0.Host.Alloc(16)
	r.eng.Spawn("send", func(p *sim.Proc) {
		smr, _ := a.ctx.RegMRBuffer(p, a.pd, src)
		if err := a.ctx.DeregMR(p, smr); err != nil {
			t.Error(err)
		}
		err := a.qp.PostSend(p, &SendWR{Opcode: OpRDMAWrite,
			SGL: []SGE{{Addr: src.Addr, Len: 16, LKey: smr.LKey}}})
		if err == nil {
			t.Error("post with deregistered MR succeeded")
		}
		if err := a.ctx.DeregMR(p, smr); err == nil {
			t.Error("double dereg succeeded")
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRDMARead(t *testing.T) {
	r := newRig()
	a := newEndpoint(r.h0, machine.MicMem)
	b := newEndpoint(r.h1, machine.MicMem)
	connect(t, a, b)
	remote := r.n1.Mic.Alloc(512)
	local := r.n0.Mic.Alloc(512)
	for i := range remote.Data {
		remote.Data[i] = byte(255 - i%256)
	}
	r.eng.Spawn("reader", func(p *sim.Proc) {
		lmr, _ := a.ctx.RegMRBuffer(p, a.pd, local)
		rmr, _ := b.ctx.RegMRBuffer(p, b.pd, remote)
		err := a.qp.PostSend(p, &SendWR{
			WRID: 11, Opcode: OpRDMARead, Signaled: true,
			SGL:    []SGE{{Addr: local.Addr, Len: 512, LKey: lmr.LKey}},
			Remote: RemoteAddr{Addr: rmr.Addr, RKey: rmr.RKey},
		})
		if err != nil {
			t.Error(err)
			return
		}
		cqes := a.cq.WaitPoll(p, 1)
		if cqes[0].Status != StatusSuccess || cqes[0].ByteLen != 512 {
			t.Errorf("read completion %+v", cqes[0])
		}
		if !bytes.Equal(local.Data, remote.Data) {
			t.Error("read data mismatch at completion")
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// figure5OneWay measures the one-way large-transfer time between the
// given source and destination domains using raw RDMA write.
func figure5OneWay(t *testing.T, srcKind, dstKind machine.DomainKind, n int) sim.Duration {
	t.Helper()
	r := newRig()
	a := newEndpoint(r.h0, srcKind)
	b := newEndpoint(r.h1, dstKind)
	connect(t, a, b)
	src := r.n0.Domain(srcKind).Alloc(n)
	dst := r.n1.Domain(dstKind).Alloc(n)
	var elapsed sim.Duration
	r.eng.Spawn("writer", func(p *sim.Proc) {
		smr, _ := a.ctx.RegMRBuffer(p, a.pd, src)
		dmr, _ := b.ctx.RegMRBuffer(p, b.pd, dst)
		start := p.Now()
		a.qp.PostSend(p, &SendWR{WRID: 1, Opcode: OpRDMAWrite, Signaled: true,
			SGL:    []SGE{{Addr: src.Addr, Len: n, LKey: smr.LKey}},
			Remote: RemoteAddr{Addr: dmr.Addr, RKey: dmr.RKey}})
		a.cq.WaitPoll(p, 1)
		elapsed = p.Now() - start
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	return elapsed
}

func TestFigure5DirectionAsymmetry(t *testing.T) {
	const n = 1 << 20
	hh := figure5OneWay(t, machine.HostMem, machine.HostMem, n)
	hp := figure5OneWay(t, machine.HostMem, machine.MicMem, n)
	ph := figure5OneWay(t, machine.MicMem, machine.HostMem, n)
	pp := figure5OneWay(t, machine.MicMem, machine.MicMem, n)
	// host→Phi delivers the same bandwidth as host→host.
	if ratio := float64(hp) / float64(hh); ratio > 1.05 {
		t.Fatalf("host→phi %.2f× host→host, want ≈1", ratio)
	}
	// Phi-sourced transfers are >4× slower regardless of destination.
	if ratio := float64(ph) / float64(hh); ratio < 4 {
		t.Fatalf("phi→host only %.2f× slower than host→host, want >4×", ratio)
	}
	if ratio := float64(pp) / float64(hh); ratio < 4 {
		t.Fatalf("phi→phi only %.2f× slower than host→host, want >4×", ratio)
	}
}

func TestLoopbackWrite(t *testing.T) {
	r := newRig()
	a := newEndpoint(r.h0, machine.HostMem)
	b := newEndpoint(r.h0, machine.HostMem) // same HCA
	connect(t, a, b)
	src := r.n0.Host.Alloc(64)
	dst := r.n0.Host.Alloc(64)
	src.Data[5] = 0x11
	r.eng.Spawn("w", func(p *sim.Proc) {
		smr, _ := a.ctx.RegMRBuffer(p, a.pd, src)
		dmr, _ := b.ctx.RegMRBuffer(p, b.pd, dst)
		a.qp.PostSend(p, &SendWR{WRID: 1, Opcode: OpRDMAWrite, Signaled: true,
			SGL:    []SGE{{Addr: src.Addr, Len: 64, LKey: smr.LKey}},
			Remote: RemoteAddr{Addr: dmr.Addr, RKey: dmr.RKey}})
		a.cq.WaitPoll(p, 1)
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if dst.Data[5] != 0x11 {
		t.Fatal("loopback write failed")
	}
}

func TestSetErrorFlushesPostedRecvs(t *testing.T) {
	r := newRig()
	a := newEndpoint(r.h0, machine.HostMem)
	b := newEndpoint(r.h1, machine.HostMem)
	connect(t, a, b)
	dst := r.n1.Host.Alloc(64)
	r.eng.Spawn("m", func(p *sim.Proc) {
		dmr, _ := b.ctx.RegMRBuffer(p, b.pd, dst)
		for i := 0; i < 3; i++ {
			if err := b.qp.PostRecv(p, &RecvWR{WRID: uint64(i), SGL: []SGE{{Addr: dst.Addr, Len: 64, LKey: dmr.LKey}}}); err != nil {
				t.Error(err)
				return
			}
		}
		b.qp.SetError()
		b.qp.SetError() // idempotent
		cqes := b.cq.Poll(p, 10)
		if len(cqes) != 3 {
			t.Errorf("flushed %d completions, want 3", len(cqes))
			return
		}
		for _, e := range cqes {
			if e.Status != StatusWRFlushErr {
				t.Errorf("flush status %v", e.Status)
			}
		}
		// Posting after the flush fails.
		if err := b.qp.PostRecv(p, &RecvWR{WRID: 9, SGL: []SGE{{Addr: dst.Addr, Len: 64, LKey: dmr.LKey}}}); err == nil {
			t.Error("post recv on errored QP succeeded")
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCQOverflowPanicsLoudly(t *testing.T) {
	r := newRig()
	a := newEndpoint(r.h0, machine.HostMem)
	a.cq.Depth = 1
	a.cq.push(CQE{})
	defer func() {
		if recover() == nil {
			t.Fatal("CQ overflow did not panic")
		}
	}()
	a.cq.push(CQE{})
}

// Property: RDMA write delivers arbitrary payloads byte-exactly for any
// size and content.
func TestQuickRDMAWritePayloads(t *testing.T) {
	f := func(payload []byte) bool {
		if len(payload) == 0 {
			payload = []byte{0}
		}
		if len(payload) > 1<<16 {
			payload = payload[:1<<16]
		}
		r := newRig()
		a := newEndpoint(r.h0, machine.MicMem)
		b := newEndpoint(r.h1, machine.MicMem)
		if err := ConnectPair(a.qp, b.qp); err != nil {
			return false
		}
		src := r.n0.Mic.Alloc(len(payload))
		dst := r.n1.Mic.Alloc(len(payload))
		copy(src.Data, payload)
		ok := true
		r.eng.Spawn("w", func(p *sim.Proc) {
			smr, _ := a.ctx.RegMRBuffer(p, a.pd, src)
			dmr, _ := b.ctx.RegMRBuffer(p, b.pd, dst)
			err := a.qp.PostSend(p, &SendWR{WRID: 1, Opcode: OpRDMAWrite, Signaled: true,
				SGL:    []SGE{{Addr: src.Addr, Len: len(payload), LKey: smr.LKey}},
				Remote: RemoteAddr{Addr: dmr.Addr, RKey: dmr.RKey}})
			if err != nil {
				ok = false
				return
			}
			a.cq.WaitPoll(p, 1)
		})
		if err := r.eng.Run(); err != nil {
			return false
		}
		return ok && bytes.Equal(dst.Data, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicTiming(t *testing.T) {
	run := func() sim.Duration { return figure5OneWay(t, machine.MicMem, machine.MicMem, 12345) }
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("nondeterministic timing: %v vs %v", got, first)
		}
	}
}

func TestOpcodeAndStatusStrings(t *testing.T) {
	ops := []Opcode{OpSend, OpSendImm, OpRDMAWrite, OpRDMAWriteImm, OpRDMARead, OpRecv, Opcode(99)}
	for _, o := range ops {
		if o.String() == "" {
			t.Fatalf("empty string for opcode %d", int(o))
		}
	}
	sts := []Status{StatusSuccess, StatusLocLenErr, StatusLocProtErr, StatusRemAccessErr, StatusWRFlushErr, Status(42)}
	for _, s := range sts {
		if s.String() == "" {
			t.Fatalf("empty string for status %d", int(s))
		}
	}
}

func TestSharedEgressSerializesQPs(t *testing.T) {
	// Two QPs on one HCA each push 1 MiB concurrently: the shared wire
	// serializes the occupancies, so the later completion lands at
	// about twice the single-transfer time.
	r := newRig()
	a1 := newEndpoint(r.h0, machine.HostMem)
	a2 := newEndpoint(r.h0, machine.HostMem)
	b1 := newEndpoint(r.h1, machine.HostMem)
	b2 := newEndpoint(r.h1, machine.HostMem)
	connect(t, a1, b1)
	connect(t, a2, b2)
	const n = 1 << 20
	src1 := r.n0.Host.Alloc(n)
	src2 := r.n0.Host.Alloc(n)
	dst1 := r.n1.Host.Alloc(n)
	dst2 := r.n1.Host.Alloc(n)
	var t1, t2 sim.Time
	r.eng.Spawn("m", func(p *sim.Proc) {
		m1, _ := a1.ctx.RegMRBuffer(p, a1.pd, src1)
		m2, _ := a2.ctx.RegMRBuffer(p, a2.pd, src2)
		d1, _ := b1.ctx.RegMRBuffer(p, b1.pd, dst1)
		d2, _ := b2.ctx.RegMRBuffer(p, b2.pd, dst2)
		start := p.Now()
		a1.qp.PostSend(p, &SendWR{WRID: 1, Opcode: OpRDMAWrite, Signaled: true,
			SGL:    []SGE{{Addr: src1.Addr, Len: n, LKey: m1.LKey}},
			Remote: RemoteAddr{Addr: d1.Addr, RKey: d1.RKey}})
		a2.qp.PostSend(p, &SendWR{WRID: 2, Opcode: OpRDMAWrite, Signaled: true,
			SGL:    []SGE{{Addr: src2.Addr, Len: n, LKey: m2.LKey}},
			Remote: RemoteAddr{Addr: d2.Addr, RKey: d2.RKey}})
		got := 0
		for got < 2 {
			for _, e := range a1.cq.WaitPoll(p, 4) {
				if e.WRID == 1 {
					t1 = p.Now()
				}
				got++
			}
			if got == 2 {
				break
			}
			for _, e := range a2.cq.WaitPoll(p, 4) {
				if e.WRID == 2 {
					t2 = p.Now()
				}
				got++
			}
		}
		_ = start
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	occ := sim.Duration(float64(n) / r.plat.IBBandwidth * float64(sim.Second))
	// The second transfer queues behind the first on the shared egress.
	if t2-t1 < occ*9/10 {
		t.Fatalf("transfers overlapped on a single wire: Δ=%v, occupancy=%v", t2-t1, occ)
	}
}

func TestHCAByLID(t *testing.T) {
	r := newRig()
	if h, err := r.h0.fab.HCAByLID(1); err != nil || h != r.h0 {
		t.Fatalf("lid 1 → %v, %v", h, err)
	}
	if _, err := r.h0.fab.HCAByLID(99); err == nil {
		t.Fatal("bogus LID resolved")
	}
	if _, err := r.h0.fab.HCAByLID(0); err == nil {
		t.Fatal("LID 0 resolved")
	}
}
