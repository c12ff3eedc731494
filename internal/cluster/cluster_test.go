package cluster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/causal"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/pcie"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/topo"
)

func TestNewBuildsNodesHCAsBuses(t *testing.T) {
	c := New(perfmodel.Default(), 8)
	if len(c.Nodes) != 8 || len(c.HCAs) != 8 || len(c.Buses) != 8 {
		t.Fatalf("sizes nodes=%d hcas=%d buses=%d", len(c.Nodes), len(c.HCAs), len(c.Buses))
	}
	for i, h := range c.HCAs {
		if h.Node != c.Nodes[i] {
			t.Fatalf("HCA %d attached to wrong node", i)
		}
		if h.LID != uint16(i+1) {
			t.Fatalf("HCA %d has LID %d", i, h.LID)
		}
	}
}

func TestNodeForRoundRobin(t *testing.T) {
	c := New(perfmodel.Default(), 3)
	want := []int{0, 1, 2, 0, 1, 2}
	for rank, w := range want {
		if got := c.NodeFor(rank); got != w {
			t.Fatalf("rank %d -> node %d, want %d", rank, got, w)
		}
	}
}

func TestEnvPlacement(t *testing.T) {
	c := New(perfmodel.Default(), 2)
	denvs := c.DCFAEnvs(2)
	for i, e := range denvs {
		if e.V.Domain().Kind != machine.MicMem {
			t.Fatalf("DCFA env %d not on the co-processor", i)
		}
		if e.V.Domain() != c.Nodes[i].Mic {
			t.Fatalf("DCFA env %d wrong domain", i)
		}
	}
	henvs := c.HostEnvs(2)
	for i, e := range henvs {
		if e.V.Domain().Kind != machine.HostMem {
			t.Fatalf("host env %d not on the host", i)
		}
		if e.V.Domain() != c.Nodes[i].Host {
			t.Fatalf("host env %d wrong domain", i)
		}
	}
}

func TestZeroNodesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-node cluster did not panic")
		}
	}()
	New(perfmodel.Default(), 0)
}

// A fat tree's up/down links run at the calibrated wire rate, not at a
// rate of their own.
func TestFatTreeRunsAtTheWireRate(t *testing.T) {
	plat := perfmodel.Default()
	plat.IBBandwidth = 7e9
	for _, name := range []string{"fattree", "fattree4"} {
		ft, ok := NewWithTopo(plat, 8, name).Fabric.Topo.(*topo.FatTree)
		if !ok {
			t.Fatalf("%s cluster has no fat tree", name)
		}
		if ft.UplinkBps != 7e9 {
			t.Fatalf("%s uplinks at %g B/s, want the platform's 7e9", name, ft.UplinkBps)
		}
	}
}

func TestModeStringParseRoundTrip(t *testing.T) {
	for i, name := range modeNames {
		m, err := ParseMode(name)
		if err != nil || m != Mode(i) || m.String() != name {
			t.Fatalf("ParseMode(%q) = %v, %v", name, m, err)
		}
	}
	if _, err := ParseMode("dcfampi"); err == nil {
		t.Fatal("ParseMode accepted a spelling String never prints")
	}
	if got := Mode(99).String(); got != "Mode(99)" {
		t.Fatalf("out-of-range mode prints %q", got)
	}
	if ModeSymmetric.Nodes(4) != 2 || ModeSymmetric.Nodes(5) != 3 || ModeIntelPhi.Nodes(4) != 4 {
		t.Fatal("Nodes: symmetric packs two ranks a node, every other mode one")
	}
}

// TestEveryModeCarriesClusterSinks is the one-constructor contract: a
// registry, a causal recorder and an ib+cmd fault plan installed on the
// cluster reach the world of every mode. Each rank pair (i, i+2 — always
// on different nodes) runs a verified eager and a verified rendezvous
// exchange; the run must recover from every injected fault with the
// payloads intact, and every rank must show up in the counters and on
// the causal timeline.
func TestEveryModeCarriesClusterSinks(t *testing.T) {
	const ranks, rounds = 4, 6
	for m := range modeNames {
		m := Mode(m)
		t.Run(m.String(), func(t *testing.T) {
			c := New(perfmodel.Default(), m.Nodes(ranks))
			reg, rec := metrics.New(), causal.New()
			c.SetMetrics(reg)
			c.SetCausal(rec)
			plan := faults.NewPlan(7)
			plan.IBError, plan.Cmd = 0.05, 0.2
			inj := c.SetFaults(plan)
			w := c.World(m, ranks)
			err := w.Run(func(r *core.Rank) error {
				p := r.Proc()
				other := (r.ID() + 2) % ranks
				for round := 0; round < rounds; round++ {
					for _, n := range []int{512, 64 << 10} {
						sb, rb := r.Mem(n), r.Mem(n)
						for i := range sb.Data {
							sb.Data[i] = byte(i*7 + r.ID() + round)
						}
						if _, err := r.Sendrecv(p, other, n, core.Whole(sb), other, n, core.Whole(rb)); err != nil {
							return err
						}
						for i, b := range rb.Data {
							if b != byte(i*7+other+round) {
								return fmt.Errorf("rank %d round %d: %d-byte payload corrupt at %d", r.ID(), round, n, i)
							}
						}
					}
				}
				return r.Barrier(p)
			})
			if err != nil {
				t.Fatal(err)
			}
			if open := reg.OpenSpans(); open != 0 {
				t.Errorf("%d spans left open", open)
			}
			// Rank-level counters, and recovery work where the plan fired.
			msgs := map[string]int64{}
			var cmdRetries, retries int64
			for _, cs := range reg.Snapshot().Counters {
				switch {
				case strings.HasPrefix(cs.Name, "proto."):
					msgs[cs.Actor] += cs.Value
				case cs.Name == "faults.retries":
					retries += cs.Value
				case cs.Name == "cmd.retries":
					cmdRetries += cs.Value
				}
			}
			onRank := make([]int, ranks)
			for _, e := range rec.Events() {
				if e.Rank >= 0 {
					onRank[e.Rank]++
				}
			}
			for i := 0; i < ranks; i++ {
				if msgs[fmt.Sprintf("rank%d", i)] == 0 {
					t.Errorf("rank %d counted no protocol: the registry never reached it", i)
				}
				if onRank[i] == 0 {
					t.Errorf("rank %d has no causal events: the recorder never reached it", i)
				}
			}
			t.Logf("ib faults %d, cmd faults %d, retries %d, cmd retries %d", inj.IBFaults, inj.CmdFaults, retries, cmdRetries)
			if inj.IBFaults == 0 {
				t.Fatal("the plan injected no ib fault: the test exercises nothing")
			}
			if retries != inj.IBFaults {
				t.Errorf("%d ib faults injected, ranks counted %d retries", inj.IBFaults, retries)
			}
			if onCard := m != ModeHost && m != ModeHostOffload; onCard && inj.CmdFaults == 0 {
				t.Error("card-resident ranks issued commands but the plan rejected none: the injector never reached the daemons")
			}
			if cmdRetries != inj.CmdFaults {
				t.Errorf("%d commands rejected, clients counted %d retries", inj.CmdFaults, cmdRetries)
			}
		})
	}
}

// TestFaultPlanInstallOrderDoesNotMatter: the injector lives only on
// the fabric and the PCIe complexes, where ranks and DCFA read it when
// the world runs, so a plan installed after World behaves exactly like
// one installed before: the same fingerprint, sim time, injector tally
// and error. Four DCFA ranks exchange 64 B to 32 KiB around a ring.
func TestFaultPlanInstallOrderDoesNotMatter(t *testing.T) {
	type outcome struct {
		fp     uint64
		now    sim.Time
		tally  [5]int64
		errMsg string
	}
	run := func(spec string, late bool) outcome {
		plan, err := faults.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		const ranks = 4
		c := New(perfmodel.Default(), ranks)
		var inj *faults.Injector
		if !late {
			inj = c.SetFaults(plan)
		}
		w := c.World(ModeDCFA, ranks)
		if late {
			inj = c.SetFaults(plan)
		}
		err = w.Run(func(r *core.Rank) error {
			p := r.Proc()
			next, prev := (r.ID()+1)%ranks, (r.ID()+ranks-1)%ranks
			for n := 64; n <= 32<<10; n *= 2 {
				sb, rb := r.Mem(n), r.Mem(n)
				for i := range sb.Data {
					sb.Data[i] = byte(i + r.ID())
				}
				if _, err := r.Sendrecv(p, next, n, core.Whole(sb), prev, n, core.Whole(rb)); err != nil {
					return err
				}
				for i, b := range rb.Data {
					if b != byte(i+prev) {
						return fmt.Errorf("rank %d: %d-byte payload corrupt at %d", r.ID(), n, i)
					}
				}
			}
			return nil
		})
		o := outcome{fp: c.Eng.Fingerprint(), now: c.Eng.Now(),
			tally: [5]int64{inj.IBFaults, inj.IBDropped, inj.CmdFaults, inj.DMADelayed, inj.DMAAborted}}
		if err != nil {
			o.errMsg = err.Error()
		}
		return o
	}
	for _, spec := range []string{"seed=7,ib=0.02", "seed=7,cmd=0.05", "seed=3,ib=0.05,cmd=0.05"} {
		t.Run(spec, func(t *testing.T) {
			early, late := run(spec, false), run(spec, true)
			if early.errMsg != "" {
				t.Errorf("plan installed before World: %s", early.errMsg)
			}
			if early.tally == [5]int64{} {
				t.Error("the plan injected nothing: the test exercises nothing")
			}
			if late != early {
				t.Errorf("installed after World: %+v\ninstalled before:     %+v", late, early)
			}
		})
	}
}

// TestRegistryCarriesHardwareCounts: the registry is the one counter of
// the hardware layers, so each fact they count must reach it. Every case
// installs a registry and a fault plan (transient CMD rejections, late
// DMA and COI completions) and runs the same exchange of fresh buffers
// — in host-offload mode wrapped in one COI transfer out and one in per
// iteration — then checks one layer's counters against what the
// injector or the ranks know on their own.
func TestRegistryCarriesHardwareCounts(t *testing.T) {
	const iters, n = 5, 48 << 10
	// sum adds the counters whose actor and name start with the given
	// prefixes.
	sum := func(reg *metrics.Registry, actor, name string) int64 {
		var s int64
		for _, cs := range reg.Snapshot().Counters {
			if strings.HasPrefix(cs.Actor, actor) && strings.HasPrefix(cs.Name, name) {
				s += cs.Value
			}
		}
		return s
	}
	cases := []struct {
		name  string
		mode  Mode
		check func(t *testing.T, reg *metrics.Registry, w *core.World, inj *faults.Injector)
	}{
		{"cmd-recovery", ModeDCFA, func(t *testing.T, reg *metrics.Registry, w *core.World, inj *faults.Injector) {
			if inj.CmdFaults == 0 {
				t.Fatal("the plan rejected no command: the case exercises nothing")
			}
			if recovered := sum(reg, "dcfa/node", "cmd.retries") + sum(reg, "dcfa/node", "cmd.timeouts"); recovered != inj.CmdFaults {
				t.Errorf("retries+timeouts = %d, injected = %d", recovered, inj.CmdFaults)
			}
			if rejected := sum(reg, "dcfad/node", "rejected."); rejected != inj.CmdFaults {
				t.Errorf("daemons counted %d rejections, injected = %d", rejected, inj.CmdFaults)
			}
		}},
		{"coi-transfers", ModeHostOffload, func(t *testing.T, reg *metrics.Registry, w *core.World, inj *faults.Injector) {
			for node := 0; node < 2; node++ {
				actor := fmt.Sprintf("pcie/node%d", node)
				if ops := reg.Counter(actor, "coi.ops").Value(); ops != 2*iters {
					t.Errorf("%s: coi.ops = %d, the rank issued %d transfers", actor, ops, 2*iters)
				}
				if moved := reg.Counter(actor, "coi.bytes").Value(); moved != 2*iters*n {
					t.Errorf("%s: coi.bytes = %d, the rank moved %d", actor, moved, 2*iters*n)
				}
			}
		}},
		{"dma-offloaded-sends", ModeDCFA, func(t *testing.T, reg *metrics.Registry, w *core.World, inj *faults.Injector) {
			for rank := 0; rank < 2; rank++ {
				staged := w.Rank(rank).Stats.OffloadedSends
				if staged == 0 {
					t.Fatalf("rank %d offloaded no send: the case exercises nothing", rank)
				}
				actor := fmt.Sprintf("pcie/node%d", rank)
				if copies := reg.Counter(actor, "dma.copies").Value(); copies != staged {
					t.Errorf("%s: dma.copies = %d, rank %d offloaded %d sends", actor, copies, rank, staged)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(perfmodel.Default(), 2)
			reg := metrics.New()
			c.SetMetrics(reg)
			plan := faults.NewPlan(5)
			plan.Cmd, plan.DMADelay = 0.2, 0.2
			inj := c.SetFaults(plan)
			w := c.World(tc.mode, 2)
			err := w.Run(func(r *core.Rank) error {
				p := r.Proc()
				var bus *pcie.Bus
				if tc.mode == ModeHostOffload {
					bus = c.Buses[c.NodeFor(r.ID())]
					bus.OffloadInit(p)
				}
				other := 1 - r.ID()
				for it := 0; it < iters; it++ {
					sb, rb := r.Mem(n), r.Mem(n)
					var card *machine.Buffer
					if bus != nil {
						card = bus.Node.Mic.Alloc(n)
						bus.OffloadTransfer(p, sb.Data, card.Data)
					}
					if _, err := r.Sendrecv(p, other, it, core.Whole(sb), other, it, core.Whole(rb)); err != nil {
						return err
					}
					if bus != nil {
						bus.OffloadTransfer(p, card.Data, rb.Data)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, reg, w, inj)
		})
	}
}
