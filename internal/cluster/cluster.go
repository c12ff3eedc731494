// Package cluster assembles simulated 8-node Xeon/Xeon-Phi/InfiniBand
// clusters (Table I) and is the one place an MPI world is built: Mode
// names the execution modes the paper compares (§III-B, §V), and
// Config, Envs and World turn a mode into a protocol configuration, the
// per-rank verbs providers and a world that carry everything installed
// on the cluster (SetMetrics, SetFaults, SetCausal). Each sink lives on
// the fabric and each node's PCIe bus, where ranks and DCFA read it, so
// a fault plan may be installed any time before World.Run; Config also
// copies the registry and the recorder, so those come before World. The
// host-offload mode's co-processor handle is the node's PCIe bus: a
// rank drives Buses[NodeFor(rank)] through its Offload* methods.
package cluster

import (
	"fmt"
	"strings"

	"repro/internal/causal"
	"repro/internal/core"
	"repro/internal/dcfa"
	"repro/internal/faults"
	"repro/internal/ib"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/pcie"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Cluster is the physical testbed: nodes, fabric, PCIe complexes.
type Cluster struct {
	Eng    *sim.Engine
	Plat   *perfmodel.Platform
	Nodes  []*machine.Node
	Fabric *ib.Fabric
	HCAs   []*ib.HCA
	Buses  []*pcie.Bus

	// Metrics is the telemetry registry shared by every layer of this
	// cluster (nil = disabled); install it with SetMetrics.
	Metrics *metrics.Registry
	// Causal is the causal-profiler event recorder shared by every
	// layer (nil = disabled); install it with SetCausal.
	Causal *causal.Recorder
}

// New builds an n-node cluster on a fresh engine.
func New(plat *perfmodel.Platform, n int) *Cluster {
	if n <= 0 {
		panic("cluster: need at least one node")
	}
	eng := sim.NewEngine()
	c := &Cluster{Eng: eng, Plat: plat, Fabric: ib.NewFabric(eng, plat)}
	for i := 0; i < n; i++ {
		node := machine.NewNode(i)
		c.Nodes = append(c.Nodes, node)
		c.HCAs = append(c.HCAs, c.Fabric.AttachHCA(node))
		c.Buses = append(c.Buses, pcie.Attach(eng, plat, node))
	}
	return c
}

// NewWithTopo builds an n-node cluster whose fabric interior is the
// named topology from internal/topo ("flat", "fattree", "fattree4"; see
// topo.Names). It panics on an unknown name — topology selection is a
// test/bench-harness decision, not runtime input.
func NewWithTopo(plat *perfmodel.Platform, n int, topology string) *Cluster {
	c := New(plat, n)
	t, err := topo.ByName(c.Eng, topology, n, plat.IBBandwidth)
	if err != nil {
		panic(err)
	}
	c.Fabric.Topo = t
	return c
}

// SetMetrics installs one telemetry registry across the cluster's
// fabric and PCIe complexes, where every DCFA client and daemon reads
// it; worlds built afterwards (World, Config) copy it to every rank.
// Call it before building worlds so ranks and QP creation pick it up.
func (c *Cluster) SetMetrics(reg *metrics.Registry) {
	c.Metrics = reg
	c.Fabric.Metrics = reg
	for _, b := range c.Buses {
		b.Metrics = reg
	}
}

// SetCausal installs one causal-event recorder across the cluster's
// fabric and PCIe complexes, where every DCFA verbs interface reads it;
// worlds built afterwards copy it to every rank, so call it before
// World. Recording is passive, so a run with a recorder installed keeps
// the fingerprint of a run without.
func (c *Cluster) SetCausal(rec *causal.Recorder) {
	c.Causal = rec
	c.Fabric.Causal = rec
	for _, b := range c.Buses {
		b.Causal = rec
	}
}

// SetFaults builds a deterministic injector from plan and installs it
// on the cluster's fabric and PCIe complexes, its only homes: each rank
// reads it from its adapter when the world runs, and each DCFA client
// and daemon from its node's bus, so it may be installed any time
// before World.Run. A nil plan (or one with all-zero rates) leaves
// every schedule untouched. The injector is returned so callers can
// read its tally after a run.
func (c *Cluster) SetFaults(plan *faults.Plan) *faults.Injector {
	inj := faults.New(c.Eng, plan)
	c.Fabric.Faults = inj
	for _, b := range c.Buses {
		b.Faults = inj
	}
	return inj
}

// NodeFor maps rank i onto a node round-robin (the paper runs one rank
// per node).
func (c *Cluster) NodeFor(rank int) int { return rank % len(c.Nodes) }

// Mode is an execution mode: where the MPI ranks run and which
// InfiniBand provider sits under them.
type Mode int

const (
	ModeDCFA        Mode = iota // DCFA-MPI with the §IV-B4 offloading send buffer
	ModeDCFABase                // DCFA-MPI without it
	ModeHost                    // host MPI reference (YAMPII on the Xeons)
	ModeIntelPhi                // 'Intel MPI on Xeon Phi': card-resident ranks, proxied verbs
	ModeHostOffload             // 'Intel MPI on Xeon + offload': host ranks, data on the card
	ModeSymmetric               // §III-B symmetric: even ranks on hosts, odd ranks proxied on cards
)

var modeNames = [...]string{"dcfa", "dcfa-nooffload", "host", "intel-phi", "intel-host-offload", "intel-symmetric"}

func (m Mode) String() string {
	if m < 0 || int(m) >= len(modeNames) {
		return fmt.Sprintf("Mode(%d)", int(m))
	}
	return modeNames[m]
}

// ParseMode is the inverse of String.
func ParseMode(s string) (Mode, error) {
	for m, name := range modeNames {
		if s == name {
			return Mode(m), nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown mode %q (one of %s)", s, strings.Join(modeNames[:], ", "))
}

// Nodes is the cluster size a job of ranks ranks fills: one rank per
// node, except symmetric's host + co-processor pair.
func (m Mode) Nodes(ranks int) int {
	if m == ModeSymmetric {
		return (ranks + 1) / 2
	}
	return ranks
}

// Config is the mode's paper-tuned protocol configuration with
// everything installed on the cluster already in it; callers that tune
// the protocol start from it.
func (c *Cluster) Config(m Mode) core.Config {
	cfg := core.ConfigFromPlatform(c.Plat)
	cfg.Offload = m == ModeDCFA
	if m == ModeIntelPhi || m == ModeSymmetric {
		// Intel MPI's much larger eager threshold
		// (I_MPI_EAGER_THRESHOLD defaults to 256 KiB) with a shallower
		// ring.
		cfg.EagerMax, cfg.EagerSlots = 256<<10, 4
	}
	cfg.Metrics, cfg.Causal = c.Metrics, c.Causal
	return cfg
}

// newMic wires DCFA for one rank on node ni: its own delegation client
// and host daemon (mcexec is per process), reporting to the sinks on
// the node's PCIe complex.
func (c *Cluster) newMic(rank, ni int) core.DCFAVerbs {
	mic, _ := dcfa.New(c.Eng, c.Plat, c.Nodes[ni], c.HCAs[ni], c.Buses[ni])
	mic.Rank = rank
	return core.DCFAVerbs{MicVerbs: mic}
}

// Envs builds the mode's per-rank environments: direct DCFA verbs,
// host verbs, or the proxied Intel path.
func (c *Cluster) Envs(m Mode, ranks int) []core.Env {
	if m < 0 || int(m) >= len(modeNames) {
		panic("cluster: unknown mode " + m.String())
	}
	envs := make([]core.Env, ranks)
	for i := range envs {
		ni, onHost := c.NodeFor(i), m == ModeHost || m == ModeHostOffload
		if m == ModeSymmetric {
			ni, onHost = c.NodeFor(i/2), i%2 == 0
		}
		switch {
		case onHost:
			envs[i].V = core.HostVerbs{Ctx: c.HCAs[ni].Open(machine.HostMem)}
		case m == ModeDCFA || m == ModeDCFABase:
			envs[i].V = c.newMic(i, ni)
		default:
			envs[i].V = core.ProxyVerbs{DCFAVerbs: c.newMic(i, ni)}
		}
	}
	return envs
}

// World builds an MPI world of the mode on c.
func (c *Cluster) World(m Mode, ranks int) *core.World {
	return core.NewWorld(c.Eng, c.Plat, c.Config(m), c.Envs(m, ranks))
}

// DCFAEnvs, HostEnvs and DCFAWorld are the spellings benchmark/ calls.
func (c *Cluster) DCFAEnvs(ranks int) []core.Env { return c.Envs(ModeDCFA, ranks) }
func (c *Cluster) HostEnvs(ranks int) []core.Env { return c.Envs(ModeHost, ranks) }
func (c *Cluster) DCFAWorld(ranks int, offload bool) *core.World {
	if offload {
		return c.World(ModeDCFA, ranks)
	}
	return c.World(ModeDCFABase, ranks)
}
