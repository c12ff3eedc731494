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
	"repro/internal/perfmodel"
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
		if e.V.Loc() != machine.MicMem {
			t.Fatalf("DCFA env %d not on the co-processor", i)
		}
		if e.V.Domain() != c.Nodes[i].Mic {
			t.Fatalf("DCFA env %d wrong domain", i)
		}
	}
	henvs := c.HostEnvs(2)
	for i, e := range henvs {
		if e.V.Loc() != machine.HostMem {
			t.Fatalf("host env %d not on the host", i)
		}
	}
}

func TestCheck(t *testing.T) {
	c := New(perfmodel.Default(), 1)
	if err := c.Check(0); err == nil {
		t.Fatal("zero ranks accepted")
	}
	if err := c.Check(4); err != nil {
		t.Fatal(err)
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
