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
// immediate data were deleted, once the script stopped driving them; and
// again when an errored QP began to flush its send queue, which ends the
// WRs behind every failure without landing or completing them). A
// callback that moves within its instant — a CQE pushed before instead
// of after SetError's flush, a landing's wake on the other side of an
// Engine.At — changes a seq and so the digest: a waiter on the
// responder's CQ, the script itself waiting on the requester's, and a
// posted receive for SetError to flush make every such order visible.
// (Re-recorded once more when the node-wide doorbell went: a landing now
// wakes its QP's owner alone, so only the event count and digest moved.
// And again when a SEND's completion came to be scheduled at its arrival,
// as a WRITE's is, instead of at its post: it fires at the same time,
// arrival plus a wire latency, but takes its calendar sequence number
// later, so only the digest moved.)

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

// scriptStatus is the completion status the signaled work request id (1
// or 2) of op must report under out. The second one behind a protection
// error is flushed by the QP's error; one that drew a fault reports it
// either way.
func scriptStatus(op Opcode, out scriptOutcome, id uint64) Status {
	switch {
	case (out == outRemKey && op != OpSend || out == outLocKey && op == OpRDMARead) && id == 2:
		return StatusWRFlushErr
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
// different leaves — driving one QP pair per cell between two of its
// HCAs.
type scriptRig struct {
	eng    *sim.Engine
	fab    *Fabric
	n0, n7 *machine.Node
	h0, h7 *HCA
	wakes  int // wake-ups of the responders' CQ waiters
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
	tp, err := topo.ByName(s.eng, topology, len(hcas), s.fab.Plat.IBBandwidth)
	if err != nil {
		t.Fatal(err)
	}
	s.fab.Topo = tp
	s.n0, s.n7, s.h0, s.h7 = nodes[0], nodes[7], hcas[0], hcas[7]
	return s
}

// cell runs one opcode to one outcome on a fresh QP pair: host memory on
// port 0 posting toward co-processor memory on port 7. Two work requests
// are in flight at once; where both will succeed the first is unsignaled.
// The requester's QP holds one posted receive, so a SetError shows up as
// a flushed completion; a waiter on the responder's CQ stands for the
// rank that owns it.
func (s *scriptRig) cell(t *testing.T, p *sim.Proc, name string, op Opcode, inline bool, out scriptOutcome) {
	a, b := newEndpoint(s.h0, machine.HostMem), newEndpoint(s.h7, machine.MicMem)
	if err := ConnectPair(a.qp, b.qp); err != nil {
		t.Errorf("%s: %v", name, err)
		return
	}
	s.eng.Spawn("responder", func(p *sim.Proc) {
		p.MarkDaemon()
		for {
			b.cq.Notify.Wait(p)
			s.wakes++
		}
	})
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
	lands := scriptStatus(op, out, 1) == StatusSuccess && op == OpSend // consumes the peer's receives
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
			if st := scriptStatus(op, out, cqe.WRID); out != outMixed && cqe.Status != st {
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
		{"flat", 0xf1df3f33bcb0911d, 424, 405750},
		{"fattree4", 0x576a02ec4ba3b239, 423, 444160},
	} {
		t.Run(row.topology, func(t *testing.T) {
			s := newScriptRig(t, row.topology, nil)
			fp, events, end := s.run(t)
			if fp != row.fp || events != row.events || end != row.end {
				t.Errorf("fingerprint %#x, %d events, end %d ns (%d responder wake-ups)\nwant        %#x, %d events, end %d ns",
					fp, events, int64(end), s.wakes, row.fp, row.events, int64(row.end))
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

// TestSendCompletesOneLatencyAfterArrival pins when a signaled SEND's
// completion is pushed: a wire latency after the payload reaches the
// responder, whose receive completes at arrival, on a flat fabric and
// across the leaves of a fat tree alike.
func TestSendCompletesOneLatencyAfterArrival(t *testing.T) {
	for _, topology := range []string{"flat", "fattree4"} {
		t.Run(topology, func(t *testing.T) {
			s := newScriptRig(t, topology, nil)
			a, b := newEndpoint(s.h0, machine.HostMem), newEndpoint(s.h7, machine.MicMem)
			if err := ConnectPair(a.qp, b.qp); err != nil {
				t.Fatal(err)
			}
			src, dst := s.n0.Host.Alloc(wireTotal), s.n7.Mic.Alloc(wireTotal)
			smr, err := s.h0.regMR(a.pd, src.Dom, src.Addr, wireTotal)
			if err != nil {
				t.Fatal(err)
			}
			dmr, err := s.h7.regMR(b.pd, dst.Dom, dst.Addr, wireTotal)
			if err != nil {
				t.Fatal(err)
			}
			var arrived, completed sim.Time
			s.eng.Spawn("responder", func(p *sim.Proc) {
				if err := b.qp.PostRecv(p, &RecvWR{WRID: 2, SGL: []SGE{{Addr: dst.Addr, Len: wireTotal, LKey: dmr.LKey}}}); err != nil {
					t.Error(err)
					return
				}
				arrived = pushed(p, b.cq)
				if e := b.cq.Poll(p, 1)[0]; e.Opcode != OpRecv || e.Status != StatusSuccess {
					t.Errorf("receive completion %+v", e)
				}
			})
			s.eng.Spawn("requester", func(p *sim.Proc) {
				p.Sleep(10 * sim.Microsecond) // let the receive post first
				if err := a.qp.PostSend(p, &SendWR{WRID: 1, Opcode: OpSend, Signaled: true, SGL: []SGE{{Addr: src.Addr, Len: wireTotal, LKey: smr.LKey}}}); err != nil {
					t.Error(err)
					return
				}
				completed = pushed(p, a.cq)
				if e := a.cq.Poll(p, 1)[0]; e.Opcode != OpSend || e.Status != StatusSuccess || e.ByteLen != wireTotal {
					t.Errorf("send completion %+v", e)
				}
			})
			if err := s.eng.Run(); err != nil {
				t.Fatal(err)
			}
			if want := arrived + s.fab.Plat.IBLatency; arrived == 0 || completed != want {
				t.Errorf("SEND arrived at %d ns and completed at %d ns, want %d ns", arrived, completed, want)
			}
		})
	}
}

// pushed waits until cq holds an entry and returns when it was pushed,
// before a poll charges its cost.
func pushed(p *sim.Proc, cq *CQ) sim.Time {
	for cq.entries.Len() == 0 {
		cq.Notify.Wait(p)
	}
	return p.Now()
}
