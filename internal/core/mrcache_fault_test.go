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

// cacheFuzzRNG is a self-contained splitmix64 for the workload shape
// (never math/rand: runs must be reproducible from the seed alone).
type cacheFuzzRNG struct{ s uint64 }

func (r *cacheFuzzRNG) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *cacheFuzzRNG) intn(n int) int { return int(r.next() % uint64(n)) }

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
	mic.SetFaults(inj)

	reg := metrics.New()
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
		rng := &cacheFuzzRNG{s: seed}
		var held []*ib.MR
		for it := 0; it < 300; it++ {
			if len(held) > 0 && rng.intn(2) == 0 {
				k := rng.intn(len(held))
				c.Release(p, held[k])
				held = append(held[:k], held[k+1:]...)
				continue
			}
			b := bufs[rng.intn(nbufs)]
			off := uint64(rng.intn(8 << 10))
			n := 1 + rng.intn(8<<10)
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
	if got := mic.CmdRetries + mic.CmdTimeouts; got != inj.CmdFaults {
		t.Errorf("recovery mismatch: retries+timeouts = %d, injected = %d", got, inj.CmdFaults)
	}
	if mic.CmdTimeouts != 0 {
		t.Errorf("%d commands timed out at a transient 0.2 rate", mic.CmdTimeouts)
	}
}
