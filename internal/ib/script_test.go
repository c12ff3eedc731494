package ib

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestWireScriptFingerprint pins "same events": one fixed script drives
// every opcode through every way a work request can end, on one engine,
// and the engine's event-order digest, event count and final time must
// equal constants recorded before the wire was rewritten onto one record
// per work request (re-recorded on the same wire, before atomics and
// immediate data were deleted, once the script stopped driving them). A
// callback that moves within its instant — a CQE pushed before instead
// of after SetError's flush, a doorbell rung on the other side of an
// Engine.At — changes a seq and so the digest: a doorbell waiter on
// either HCA and a posted receive for SetError to flush make every such
// order visible.

// scriptOutcome is how a cell's work requests are made to end.
type scriptOutcome int

const (
	outOK             scriptOutcome = iota
	outRemKey                       // the remote key is not registered
	outLocKey                       // the local region is deregistered before the response lands
	outFaultDelivered               // injected retry exhaustion, payload lands first
	outFaultLost                    // injected retry exhaustion, payload lost
	outReadFault                    // every READ faults; a WRITE's payload lands or not by the plan's draw
	outMixed                        // the trailing phase: one injector over many posts, half of them faulted
)

var scriptOutcomes = []struct {
	name string
	out  scriptOutcome
	plan *faults.Plan
}{
	{"success", outOK, nil},
	{"remote-key error", outRemKey, nil},
	{"local-key error at response", outLocKey, nil},
	{"fault delivered", outFaultDelivered, &faults.Plan{IBError: 1, IBDelivered: 1}},
	{"fault lost", outFaultLost, &faults.Plan{IBError: 1, IBDelivered: 0}},
	{"read fault", outReadFault, &faults.Plan{Seed: 3, IBError: 1, IBDelivered: 0.5}},
}

var scriptOps = []struct {
	name   string
	op     Opcode
	inline bool
}{
	{"SEND", OpSend, false},
	{"WRITE", OpRDMAWrite, false},
	{"WRITE inline", OpRDMAWrite, true},
	{"READ", OpRDMARead, false},
}

// scriptStatus is the completion status a signaled work request of op
// must report under out.
func scriptStatus(op Opcode, out scriptOutcome) Status {
	switch {
	case out == outRemKey && op != OpSend:
		return StatusRemAccessErr
	case out == outLocKey && op == OpRDMARead:
		return StatusLocProtErr
	case out >= outFaultDelivered && op != OpSend:
		return StatusRetryExcErr
	}
	return StatusSuccess
}

// scriptRig is an eight-port fabric — on fattree4 ports 0 and 7 sit on
// different leaves — with a doorbell waiter on each of the two HCAs the
// script uses.
type scriptRig struct {
	eng    *sim.Engine
	fab    *Fabric
	n0, n7 *machine.Node
	h0, h7 *HCA
	rings  int // doorbell wake-ups seen on either HCA
}

func newScriptRig(t *testing.T, topology string, reg *metrics.Registry) *scriptRig {
	t.Helper()
	s := &scriptRig{eng: sim.NewEngine()}
	s.fab = NewFabric(s.eng, perfmodel.Default())
	s.fab.Metrics = reg
	var hcas [8]*HCA
	var nodes [8]*machine.Node
	for i := range hcas {
		nodes[i] = machine.NewNode(i)
		hcas[i] = s.fab.AttachHCA(nodes[i])
	}
	tp, err := topo.ByName(s.eng, topology, len(hcas))
	if err != nil {
		t.Fatal(err)
	}
	s.fab.Topo = tp
	s.n0, s.n7, s.h0, s.h7 = nodes[0], nodes[7], hcas[0], hcas[7]
	for _, h := range []*HCA{s.h0, s.h7} {
		s.eng.Spawn("doorbell", func(p *sim.Proc) {
			p.MarkDaemon()
			for {
				h.Doorbell.Wait(p)
				s.rings++
			}
		})
	}
	return s
}

// cell runs one opcode to one outcome on a fresh QP pair: host memory on
// port 0 posting toward co-processor memory on port 7. Two work requests
// are in flight at once; where both will succeed the first is unsignaled.
// The requester's QP holds one posted receive, so a SetError shows up as
// a flushed completion.
func (s *scriptRig) cell(t *testing.T, p *sim.Proc, name string, op Opcode, inline bool, out scriptOutcome) {
	a, b := newEndpoint(s.h0, machine.HostMem), newEndpoint(s.h7, machine.MicMem)
	if err := ConnectPair(a.qp, b.qp); err != nil {
		t.Errorf("%s: %v", name, err)
		return
	}
	// This runs on the script's process, where t.Fatal must not be called:
	// a failed registration panics into the engine's PanicError instead.
	reg := func(e *endpoint, buf *machine.Buffer) *MR {
		mr, err := e.ctx.HCA.regMR(e.pd, buf.Dom, buf.Addr, len(buf.Data))
		if err != nil {
			panic(err)
		}
		return mr
	}
	local, spare := s.n0.Host.Alloc(wireTotal), s.n0.Host.Alloc(wireTotal)
	remote, landing := s.n7.Mic.Alloc(wireTotal), s.n7.Mic.Alloc(2*wireTotal)
	lmr, smr := reg(a, local), reg(a, spare)
	rmr, dmr := reg(b, remote), reg(b, landing)
	for i := range local.Data {
		local.Data[i], remote.Data[i] = byte(i), byte(i)|0x80
	}

	if err := a.qp.PostRecv(p, &RecvWR{WRID: 100, SGL: []SGE{{Addr: spare.Addr, Len: wireTotal, LKey: smr.LKey}}}); err != nil {
		t.Errorf("%s: %v", name, err)
	}
	st := scriptStatus(op, out)
	lands := st == StatusSuccess && op == OpSend // consumes the peer's receives
	if op == OpSend {
		for i := 0; i < 2; i++ {
			rwr := &RecvWR{WRID: uint64(200 + i), SGL: []SGE{{Addr: landing.Addr + uint64(i*wireTotal), Len: wireTotal, LKey: dmr.LKey}}}
			if err := b.qp.PostRecv(p, rwr); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}

	sgl := []SGE{{Addr: local.Addr, Len: 16, LKey: lmr.LKey}, {Addr: local.Addr + 16, Len: 64, LKey: lmr.LKey}, {Addr: local.Addr + 80, Len: 8, LKey: lmr.LKey}}
	rem := RemoteAddr{Addr: rmr.Addr, RKey: rmr.RKey}
	if out == outRemKey {
		rem.RKey += 1000
	}
	signaled := 0
	for id := uint64(1); id <= 2; id++ {
		wr := &SendWR{WRID: id, Opcode: op, Inline: inline, SGL: sgl, Remote: rem,
			Signaled: id == 2 || out != outOK || op == OpRDMARead}
		if err := a.qp.PostSend(p, wr); err != nil {
			t.Errorf("%s: post %d: %v", name, id, err)
			continue
		}
		if wr.Signaled {
			signaled++
		}
	}
	if out == outLocKey && op == OpRDMARead {
		if err := s.h0.deregMR(lmr); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	for signaled > 0 {
		for _, cqe := range a.cq.WaitPoll(p, 4) {
			if cqe.Opcode == OpRecv {
				continue // the flushed receive of an errored QP
			}
			signaled--
			if out != outMixed && cqe.Status != st {
				t.Errorf("%s: completion %+v, want status %v", name, cqe, st)
			}
		}
	}
	if lands && out != outMixed {
		for got := 0; got < 2; {
			got += len(b.cq.WaitPoll(p, 2))
		}
	}
	p.Sleep(5 * sim.Microsecond)
}

// run plays the whole script and returns what it pins.
func (s *scriptRig) run(t *testing.T) (fp uint64, events int64, end sim.Time) {
	t.Helper()
	s.eng.Spawn("script", func(p *sim.Proc) {
		for _, o := range scriptOutcomes {
			for _, c := range scriptOps {
				s.fab.Faults = faults.New(s.eng, o.plan)
				s.cell(t, p, c.name+"/"+o.name, c.op, c.inline, o.out)
			}
		}
		// One injector across many posts: which of them fault depends on
		// how many draws came before and when, so a draw that moved from
		// post time to arrival time lands on other work requests.
		s.fab.Faults = faults.New(s.eng, &faults.Plan{Seed: 7, IBError: 0.5, IBDelivered: 0.5})
		for i := 0; i < 24; i++ {
			c := scriptOps[i%len(scriptOps)]
			s.cell(t, p, fmt.Sprintf("mixed %d/%s", i, c.name), c.op, c.inline, outMixed)
		}
	})
	if err := s.eng.Run(); err != nil {
		t.Fatal(err)
	}
	return s.eng.Fingerprint(), s.eng.EventsRun(), s.eng.Now()
}

func TestWireScriptFingerprint(t *testing.T) {
	for _, row := range []struct {
		topology string
		fp       uint64
		events   int64
		end      sim.Time
	}{
		{"flat", 0xa4527781a5201d6c, 590, 413760},
		{"fattree4", 0x177d8f54345291c9, 592, 453480},
	} {
		t.Run(row.topology, func(t *testing.T) {
			s := newScriptRig(t, row.topology, nil)
			fp, events, end := s.run(t)
			if fp != row.fp || events != row.events || end != row.end {
				t.Errorf("fingerprint %#x, %d events, end %d ns (%d doorbell wake-ups)\nwant        %#x, %d events, end %d ns",
					fp, events, int64(end), s.rings, row.fp, row.events, int64(row.end))
			}
			// Instrumenting the fabric moves no event, and every wire span
			// a work request opened is closed whichever way it ended.
			reg := metrics.New()
			if ifp, _, _ := newScriptRig(t, row.topology, reg).run(t); ifp != fp {
				t.Errorf("instrumented fingerprint %#x, bare %#x", ifp, fp)
			}
			if n := reg.OpenSpans(); n != 0 {
				t.Errorf("%d wire spans left open", n)
			}
		})
	}
}
