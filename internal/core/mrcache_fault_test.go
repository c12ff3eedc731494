package core

// Property test of the buffer cache pool under delegated-command
// faults: every RegMR/DeregMR rides the DCFA CMD channel, which the
// plan makes transiently reject, so the client retries with backoff.
// Whatever the fault pattern, the cache must never double-register a
// range, never lose a pinned registration, and tear down to zero.

import (
	"testing"

	"repro/internal/dcfa"
	"repro/internal/faults"
	"repro/internal/ib"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/pcie"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

func TestMRCacheSurvivesCmdFaults(t *testing.T) {
	const seed = 11
	eng := sim.NewEngine()
	plat := perfmodel.Default()
	fab := ib.NewFabric(eng, plat)
	node := machine.NewNode(0)
	hca := fab.AttachHCA(node)
	bus := pcie.Attach(eng, plat, node)
	mic, daemon := dcfa.New(eng, plat, node, hca, bus)

	plan := faults.NewPlan(seed)
	plan.Cmd = 0.2
	inj := faults.New(eng, plan)
	fab.Faults = inj
	bus.Faults = inj

	reg := metrics.New()
	bus.Metrics = reg
	v := DCFAVerbs{MicVerbs: mic}
	eng.Spawn("test", func(p *sim.Proc) {
		pd, err := v.AllocPD(p)
		if err != nil {
			t.Error(err)
			return
		}
		c := NewMRCache(v, pd, 4)
		c.instrument(reg, "test")

		const nbufs = 8
		bufs := make([]*machine.Buffer, nbufs)
		for i := range bufs {
			bufs[i] = node.Mic.Alloc(16 << 10)
		}
		rng := sim.NewSplitMix(seed)
		var held []*ib.MR
		for it := 0; it < 300; it++ {
			if len(held) > 0 && rng.Intn(2) == 0 {
				k := rng.Intn(len(held))
				c.Release(p, held[k])
				held = append(held[:k], held[k+1:]...)
				continue
			}
			b := bufs[rng.Intn(nbufs)]
			off := uint64(rng.Intn(8 << 10))
			n := 1 + rng.Intn(8<<10)
			mr, err := c.Get(p, b.Dom, b.Addr+off, n)
			if err != nil {
				t.Errorf("iter %d: Get: %v", it, err)
				return
			}
			if mr.Addr > b.Addr+off || mr.Addr+uint64(mr.Len) < b.Addr+off+uint64(n) {
				t.Errorf("iter %d: MR [%#x,+%d) does not cover [%#x,+%d)", it, mr.Addr, mr.Len, b.Addr+off, n)
				return
			}
			held = append(held, mr)
		}
		for _, mr := range held {
			c.Release(p, mr)
		}
		if c.Pinned() != 0 {
			t.Errorf("pinned=%d after releasing everything", c.Pinned())
		}
		if err := c.Flush(p); err != nil {
			t.Errorf("flush: %v", err)
		}
		if c.Len() != 0 {
			t.Errorf("len=%d after flush", c.Len())
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	if g := reg.Gauge("test", "mrcache.pinned-bytes").Value(); g != 0 {
		t.Errorf("pinned-bytes gauge = %d at teardown", g)
	}
	// The daemon's hash table holds delegated MRs: every region the
	// cache registered must have been deregistered exactly once,
	// despite the faulted command channel (a lost dereg would leave
	// objects behind; a double register would also inflate the count).
	if live := daemon.LiveObjects(); live != 0 {
		t.Errorf("daemon holds %d delegated MRs at teardown, want 0", live)
	}
	if inj.CmdFaults == 0 {
		t.Fatal("plan injected no CMD faults; raise the rate or iterations")
	}
	if n := reg.Counter("dcfa/node0", "cmd.timeouts").Value(); n != 0 {
		t.Errorf("%d commands timed out at a transient 0.2 rate", n)
	}
}
