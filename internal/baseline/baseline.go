// Package baseline holds the co-processor side of the 'Intel MPI on
// Xeon where it offloads computation to Xeon Phi co-processors' mode
// (§III-B, §V): MPI ranks run on the hosts at full host MPI speed, but
// application data lives on the co-processor, so every compute step
// pays #pragma-offload kernel launches and COI data transfers (modeled
// by internal/pcie), optimized with the paper's four policies
// (persistent buffers, no per-iteration offload init, 4 KiB alignment,
// double buffering). The worlds of every mode, this one's host ranks
// and the proxied 'Intel MPI on Xeon Phi' provider included, are built
// by internal/cluster.
package baseline

import (
	"repro/internal/cluster"
	"repro/internal/machine"
	"repro/internal/pcie"
	"repro/internal/sim"
)

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

// Launch pays one offload-region invocation (kernel dispatch plus
// waking the region's OpenMP threads on the co-processor).
func (d *OffloadDevice) Launch(p *sim.Proc, threads int) {
	d.Launches++
	d.Bus.OffloadLaunch(p, threads)
}

// Devices returns one offload device per rank of a
// cluster.ModeHostOffload world on c.
func Devices(c *cluster.Cluster, ranks int) []*OffloadDevice {
	devs := make([]*OffloadDevice, ranks)
	for i := range devs {
		devs[i] = NewOffloadDevice(c.Buses[c.NodeFor(i)])
	}
	return devs
}
