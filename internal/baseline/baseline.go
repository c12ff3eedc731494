// Package baseline reimplements the cost structure of the two Intel MPI
// configurations the paper compares DCFA-MPI against (§III-B, §V):
//
//   - 'Intel MPI on Xeon Phi co-processors' mode: MPI ranks run on the
//     co-processors, but InfiniBand operations are relayed through the
//     host IB proxy daemon over SCIF. Each operation pays the proxy
//     round trip and large transfers are staged through the host at
//     proxy throughput (the paper observes it "cannot get bandwidth
//     greater than 1 Gbytes/s"). No offloading send-buffer design.
//
//   - 'Intel MPI on Xeon where it offloads computation to Xeon Phi
//     co-processors' mode: MPI ranks run on the hosts at full host MPI
//     speed, but application data lives on the co-processor, so every
//     compute step pays #pragma-offload kernel launches and COI data
//     transfers (modeled by internal/pcie), optimized with the paper's
//     four policies (persistent buffers, no per-iteration offload init,
//     4 KiB alignment, double buffering).
package baseline

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dcfa"
	"repro/internal/ib"
	"repro/internal/machine"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// ProxyVerbs is the 'Intel MPI on Xeon Phi' provider: co-processor
// resident MPI whose verbs are relayed through the host proxy daemon.
// It is the DCFA provider except where the relay costs or withholds
// something.
type ProxyVerbs struct {
	core.DCFAVerbs
	// The Intel stack has no offloading send-buffer verbs.
	core.NoOffload
}

// CreateQP creates the QP and caps its throughput at the proxy staging
// rate.
func (x ProxyVerbs) CreateQP(p *sim.Proc, pd *ib.PD, scq, rcq *ib.CQ) (*ib.QP, error) {
	qp, err := x.DCFAVerbs.CreateQP(p, pd, scq, rcq)
	if err != nil {
		return nil, err
	}
	qp.RateCap = x.Plat.ProxyBandwidth
	return qp, nil
}

// PostSend relays the work request through the host proxy daemon: one
// extra per-operation cost before the HCA sees it.
func (x ProxyVerbs) PostSend(p *sim.Proc, qp *ib.QP, wr *ib.SendWR) error {
	p.Sleep(x.Plat.ProxySendCost)
	return qp.PostSend(p, wr)
}

// RecvOverhead is the daemon's inbound relay: completion notification
// plus copying the staged payload back to card memory.
func (x ProxyVerbs) RecvOverhead(n int) sim.Duration {
	return x.Plat.ProxyRecvCost(n)
}

// PhiMPIWorld builds an 'Intel MPI on Xeon Phi' world on c. It uses
// Intel MPI's much larger eager threshold (256 KiB default) with a
// shallower ring, and no offloading send-buffer design.
func PhiMPIWorld(c *cluster.Cluster, ranks int) *core.World {
	cfg := core.ConfigFromPlatform(c.Plat)
	cfg.Offload = false
	cfg.EagerMax = c.Plat.ProxyEagerMax
	cfg.EagerSlots = 4
	cfg.Metrics = c.Metrics
	envs := make([]core.Env, ranks)
	for i := 0; i < ranks; i++ {
		ni := c.NodeFor(i)
		mic, _ := dcfa.New(c.Eng, c.Plat, c.Nodes[ni], c.HCAs[ni], c.Buses[ni])
		mic.SetMetrics(c.Metrics)
		envs[i] = core.Env{V: ProxyVerbs{DCFAVerbs: core.DCFAVerbs{MicVerbs: mic}}, Node: c.Nodes[ni]}
	}
	return core.NewWorld(c.Eng, c.Plat, cfg, envs)
}

// SymmetricWorld builds the third §III-B configuration: 'Symmetric'
// mode, with MPI ranks on both host processors and co-processors
// ("messages can be transferred to/from any core"). Even ranks run on
// the hosts at host speed; odd ranks run on the co-processors through
// the proxy path. The paper lists but does not evaluate this mode; it
// is provided for completeness.
func SymmetricWorld(c *cluster.Cluster, ranks int) *core.World {
	cfg := core.ConfigFromPlatform(c.Plat)
	cfg.Offload = false
	cfg.EagerMax = c.Plat.ProxyEagerMax
	cfg.EagerSlots = 4
	cfg.Metrics = c.Metrics
	envs := make([]core.Env, ranks)
	for i := 0; i < ranks; i++ {
		ni := c.NodeFor(i / 2)
		if i%2 == 0 {
			envs[i] = core.Env{
				V:    core.HostVerbs{Ctx: c.HCAs[ni].Open(machine.HostMem), Node: c.Nodes[ni]},
				Node: c.Nodes[ni],
			}
		} else {
			mic, _ := dcfa.New(c.Eng, c.Plat, c.Nodes[ni], c.HCAs[ni], c.Buses[ni])
			mic.SetMetrics(c.Metrics)
			envs[i] = core.Env{V: ProxyVerbs{DCFAVerbs: core.DCFAVerbs{MicVerbs: mic}}, Node: c.Nodes[ni]}
		}
	}
	return core.NewWorld(c.Eng, c.Plat, cfg, envs)
}

// OffloadDevice is the per-rank co-processor handle in the 'Intel MPI on
// Xeon + offload' mode.
type OffloadDevice struct {
	Bus  *pcie.Bus
	Node *machine.Node

	initialized bool
	// Transfers and TransferBytes count COI traffic.
	Transfers     int64
	TransferBytes int64
	Launches      int64
}

// NewOffloadDevice wraps the node's PCIe complex.
func NewOffloadDevice(bus *pcie.Bus) *OffloadDevice {
	return &OffloadDevice{Bus: bus, Node: bus.Node}
}

// Init pays the one-time COI engine initialization (kept out of the
// timed loops, per the paper's first optimization policy).
func (d *OffloadDevice) Init(p *sim.Proc) {
	if d.initialized {
		return
	}
	d.initialized = true
	d.Bus.OffloadInit(p)
}

// TransferIn copies host data into co-processor memory (offload in).
func (d *OffloadDevice) TransferIn(p *sim.Proc, micDst, hostSrc []byte) {
	d.Transfers++
	d.TransferBytes += int64(len(hostSrc))
	d.Bus.OffloadTransfer(p, micDst, hostSrc)
}

// TransferOut copies co-processor data back to host memory.
func (d *OffloadDevice) TransferOut(p *sim.Proc, hostDst, micSrc []byte) {
	d.Transfers++
	d.TransferBytes += int64(len(micSrc))
	d.Bus.OffloadTransfer(p, hostDst, micSrc)
}

// StartTransfer is the asynchronous form used for the double-buffer
// overlap policy; the returned event fires at completion.
func (d *OffloadDevice) StartTransfer(dst, src []byte) *sim.Event {
	d.Transfers++
	d.TransferBytes += int64(len(src))
	return d.Bus.StartOffloadTransfer(dst, src)
}

// Launch pays one offload-region invocation (kernel dispatch plus
// waking the region's OpenMP threads on the co-processor).
func (d *OffloadDevice) Launch(p *sim.Proc, threads int) {
	d.Launches++
	d.Bus.OffloadLaunch(p, threads)
}

// HostOffloadWorld builds the 'Intel MPI on Xeon + offload' world: host
// MPI ranks plus one offload device per rank.
func HostOffloadWorld(c *cluster.Cluster, ranks int) (*core.World, []*OffloadDevice) {
	w := c.HostWorld(ranks)
	devs := make([]*OffloadDevice, ranks)
	for i := 0; i < ranks; i++ {
		devs[i] = NewOffloadDevice(c.Buses[c.NodeFor(i)])
	}
	return w, devs
}
