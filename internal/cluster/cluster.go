// Package cluster assembles simulated 8-node Xeon/Xeon-Phi/InfiniBand
// clusters (Table I) and wires MPI worlds for the execution modes the
// paper compares:
//
//   - DCFA-MPI (ranks on the co-processors, direct HCA access, with or
//     without the offloading send-buffer design);
//   - the host MPI reference (ranks on the Xeons — the YAMPII
//     configuration DCFA-MPI derives from).
//
// The 'Intel MPI' baseline modes live in internal/baseline.
package cluster

import (
	"fmt"

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
	// Faults is the deterministic fault injector shared by the fabric,
	// the PCIe complexes and the DCFA daemons (nil = no faults);
	// install it with SetFaults before building worlds.
	Faults *faults.Injector
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
	t, err := topo.ByName(c.Eng, topology, n)
	if err != nil {
		panic(err)
	}
	c.Fabric.Topo = t
	return c
}

// SetMetrics installs one telemetry registry across the cluster's
// fabric and PCIe complexes; worlds built afterwards (DCFAWorld,
// HostWorld, DCFAEnvs) inherit it down to every rank and DCFA daemon.
// Call it before building worlds so QP creation picks up the handles.
func (c *Cluster) SetMetrics(reg *metrics.Registry) {
	c.Metrics = reg
	c.Fabric.Metrics = reg
	for _, b := range c.Buses {
		b.Metrics = reg
	}
}

// SetCausal installs one causal-event recorder across the cluster's
// fabric and PCIe complexes; worlds built afterwards inherit it down to
// every rank and DCFA verbs interface. Recording is passive, so a run
// with a recorder installed keeps the fingerprint of a run without.
func (c *Cluster) SetCausal(rec *causal.Recorder) {
	c.Causal = rec
	c.Fabric.Causal = rec
	for _, b := range c.Buses {
		b.Causal = rec
	}
}

// SetFaults builds a deterministic injector from plan and installs it
// across the cluster's fabric and PCIe complexes; worlds built
// afterwards inherit it down to every rank and DCFA daemon. A nil plan
// (or one with all-zero rates) leaves every schedule untouched. The
// injector is returned so callers can read its tally after a run.
func (c *Cluster) SetFaults(plan *faults.Plan) *faults.Injector {
	inj := faults.New(c.Eng, plan)
	c.Faults = inj
	c.Fabric.Faults = inj
	for _, b := range c.Buses {
		b.Faults = inj
	}
	return inj
}

// NodeFor maps rank i onto a node round-robin (the paper runs one rank
// per node).
func (c *Cluster) NodeFor(rank int) int { return rank % len(c.Nodes) }

// DCFAEnvs builds per-rank DCFA environments: each rank gets its own
// delegation client and host daemon (mcexec is per process).
func (c *Cluster) DCFAEnvs(ranks int) []core.Env {
	envs := make([]core.Env, ranks)
	for i := 0; i < ranks; i++ {
		ni := c.NodeFor(i)
		mic, _ := dcfa.New(c.Eng, c.Plat, c.Nodes[ni], c.HCAs[ni], c.Buses[ni])
		mic.SetMetrics(c.Metrics)
		mic.SetFaults(c.Faults)
		mic.SetCausal(c.Causal, i)
		envs[i] = core.Env{V: core.DCFAVerbs{MicVerbs: mic}, Node: c.Nodes[ni]}
	}
	return envs
}

// HostEnvs builds per-rank host-verbs environments (ranks on the Xeons).
func (c *Cluster) HostEnvs(ranks int) []core.Env {
	envs := make([]core.Env, ranks)
	for i := 0; i < ranks; i++ {
		ni := c.NodeFor(i)
		envs[i] = core.Env{
			V:    core.HostVerbs{Ctx: c.HCAs[ni].Open(machine.HostMem), Node: c.Nodes[ni]},
			Node: c.Nodes[ni],
		}
	}
	return envs
}

// DCFAWorld builds a DCFA-MPI world. offload selects the §IV-B4
// offloading send-buffer design.
func (c *Cluster) DCFAWorld(ranks int, offload bool) *core.World {
	cfg := core.ConfigFromPlatform(c.Plat)
	cfg.Offload = offload
	cfg.Metrics = c.Metrics
	cfg.Faults = c.Faults
	cfg.Causal = c.Causal
	return core.NewWorld(c.Eng, c.Plat, cfg, c.DCFAEnvs(ranks))
}

// HostWorld builds the host MPI reference world.
func (c *Cluster) HostWorld(ranks int) *core.World {
	cfg := core.ConfigFromPlatform(c.Plat)
	cfg.Offload = false
	cfg.Metrics = c.Metrics
	cfg.Faults = c.Faults
	cfg.Causal = c.Causal
	return core.NewWorld(c.Eng, c.Plat, cfg, c.HostEnvs(ranks))
}

// Check validates a rank count against the cluster.
func (c *Cluster) Check(ranks int) error {
	if ranks < 1 {
		return fmt.Errorf("cluster: invalid rank count %d", ranks)
	}
	return nil
}
