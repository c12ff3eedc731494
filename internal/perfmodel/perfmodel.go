// Package perfmodel centralizes every calibrated constant of the
// simulated platform. Each number is annotated with the paper
// observation it reproduces; changing them moves every figure, so they
// live in exactly one place.
//
// The modeled platform mirrors Table I of the paper: 8 nodes, each with
// an Intel Xeon E5-2670 (16 hardware threads), one pre-production Xeon
// Phi (Knights Corner, 57 cores) and a Mellanox ConnectX-3 FDR
// InfiniBand HCA.
package perfmodel

import (
	"repro/internal/machine"
	"repro/internal/sim"
)

// Platform is the full calibrated hardware/software cost model.
type Platform struct {
	// ---- InfiniBand fabric ----

	// IBBandwidth is the peak effective FDR wire bandwidth (bytes/s).
	// Host↔host large-message MPI reaches ~5.6-5.8 GB/s on ConnectX-3;
	// the paper's DCFA-MPI offload result (2.8 GB/s) is described as
	// "2 times slower than the host".
	IBBandwidth float64
	// IBLatency is the one-way wire+switch propagation delay.
	IBLatency sim.Duration

	// HCA DMA engine rates by buffer location (bytes/s). Figure 5's
	// finding: the HCA's DMA *read from Phi memory* is the bottleneck —
	// ">4 times" slower than host-sourced transfers — while DMA writes
	// into Phi memory run at full speed (host→Phi equals host→host).
	HCAReadHost  float64
	HCAReadPhi   float64
	HCAWriteHost float64
	HCAWritePhi  float64

	// ---- Per-operation software costs ----

	// Post/poll costs differ across the slow in-order Phi core with
	// uncached PCIe MMIO and the host core.
	HostPostCost sim.Duration
	PhiPostCost  sim.Duration
	HostPollCost sim.Duration
	PhiPollCost  sim.Duration

	// MPI per-message software overhead (matching, headers, progress).
	// Calibrated so DCFA-MPI's 4-byte blocking RTT is ~15 µs and the
	// host MPI's is a few µs (Figure 9 / Figure 7).
	HostMPIPerMsg sim.Duration
	PhiMPIPerMsg  sim.Duration

	// MemCopyRate is local memcpy bandwidth for eager copies. The paper:
	// "the data copy operation on the Xeon Phi spends less than 1
	// microsecond for 4Kbytes".
	HostCopyRate float64
	PhiCopyRate  float64

	// ---- Memory registration (Section IV-B3: "much more expensive on
	// the Xeon Phi because of the offloading implementation") ----

	HostMRRegBase    sim.Duration
	HostMRRegPerByte float64 // seconds per byte (page pinning)
	// DelegationExtra is added on top of the SCIF round trip for
	// Phi-side registration (host-side mapping of Phi pages).
	DelegationExtra sim.Duration
	// HostVerbsCallCost is the host daemon's work for one delegated
	// resource-creation verb (alloc PD, create CQ/QP).
	HostVerbsCallCost sim.Duration

	// ---- SCIF / command channel ----

	// SCIFMsgLatency is one host↔Phi crossing for a small command.
	SCIFMsgLatency sim.Duration

	// ---- Phi DMA engine (sync_offload_mr path) ----

	// DMAEngineBandwidth is the Phi's own DMA engine rate for bulk
	// Phi→host staging; unlike HCA reads it runs near PCIe speed.
	// Calibrated so offloaded large-message MPI bandwidth lands at
	// ~2.8 GB/s (Figure 8): sync(n/5.5G) + wire(n/5.8G) → n/2.8G.
	DMAEngineBandwidth float64
	DMAEngineLatency   sim.Duration

	// ---- Intel MPI on Xeon Phi mode (proxy path) ----

	// ProxySendCost is the extra cost of relaying one work request
	// through the host IB proxy daemon (outbound SCIF crossing plus
	// daemon work); ProxyRecvBase + n·ProxyRecvPerByte is the inbound
	// side, where the daemon copies staged payloads back to the card.
	// Together they yield the paper's 28 µs 4-byte RTT.
	ProxySendCost    sim.Duration
	ProxyRecvBase    sim.Duration
	ProxyRecvPerByte float64 // seconds per byte
	// ProxyBandwidth caps the proxied large-message path: "cannot get
	// bandwidth greater than 1 Gbytes/s" (Figure 9).
	ProxyBandwidth float64
	// ProxyEagerMax is the Intel MPI eager/rendezvous threshold
	// (I_MPI_EAGER_THRESHOLD defaults to 256 KiB).
	ProxyEagerMax int

	// ---- Intel offload (COI / #pragma offload) path ----

	// OffloadTransferOverhead is the fixed cost of one optimized
	// offload_transfer (signal+wait over PCIe), after the paper's four
	// tuning policies. Two of these per iteration give the ~12× gap at
	// ≤128 B in Figure 10.
	OffloadTransferOverhead sim.Duration
	// OffloadBandwidth is effective large pragma-offload throughput;
	// with the serial copy-out→send dependency it produces the 2× gap
	// at ≥512 KiB in Figure 10.
	OffloadBandwidth float64
	// Kernel launch cost per offload region: base plus per-OpenMP-thread
	// wakeup inside the region (thread re-wakeup on KNC is expensive).
	OffloadLaunchBase      sim.Duration
	OffloadLaunchPerThread sim.Duration
	// OffloadInitCost is the one-time COI engine initialization,
	// excluded from per-iteration averages like the paper's optimized
	// application ("eliminate offload initialization from the loop").
	OffloadInitCost sim.Duration

	// ---- Datatype pack/unpack (future-work offload, §VI) ----

	// PhiPackRate is the strided gather/scatter rate of the in-order
	// Phi core; HostPackRate is the host CPU packing co-processor
	// pages through the modified IB core mapping. OffloadPackMinSize is
	// where the delegation round trip amortizes.
	PhiPackRate        float64
	HostPackRate       float64
	OffloadPackMinSize int

	// ---- Computation ----

	// Stencil point-update rates (points/s) for one thread.
	PhiCoreRate  float64
	HostCoreRate float64
	// OMP native fork-join cost per parallel region.
	OMPForkBase      sim.Duration
	OMPForkPerThread sim.Duration
	// PhiScalingAlpha parameterizes Phi thread scaling for the
	// memory-bound stencil: S(T) = T / (1 + alpha·(T-1)); alpha is set
	// so S(56) ≈ 17.9, which reproduces Figure 12's 117× at 8 procs ×
	// 56 threads once communication is added.
	PhiScalingAlpha float64

	// ---- Topology / protocol tuning ----

	HostCores      int // OpenMP scaling on a host stops here
	EagerMax       int // eager/rendezvous switch (bytes)
	OffloadMinSize int // offload-send-buffer threshold: "starting from 8Kbytes"
	EagerSlots     int // eager ring depth per peer
	MRCacheEntries int // buffer cache pool capacity
}

// Default returns the calibrated platform described in DESIGN.md §5.
func Default() *Platform {
	return &Platform{
		IBBandwidth: 5.8e9,
		IBLatency:   900 * sim.Nanosecond,

		HCAReadHost:  26e9,
		HCAReadPhi:   1.25e9, // Figure 5 bottleneck: >4× below host paths
		HCAWriteHost: 26e9,
		HCAWritePhi:  26e9, // host→Phi matches host→host (Figure 5)

		HostPostCost: 300 * sim.Nanosecond,
		PhiPostCost:  1200 * sim.Nanosecond,
		HostPollCost: 200 * sim.Nanosecond,
		PhiPollCost:  800 * sim.Nanosecond,

		HostMPIPerMsg: 1200 * sim.Nanosecond,
		PhiMPIPerMsg:  5000 * sim.Nanosecond,

		HostCopyRate: 12e9,
		PhiCopyRate:  5e9, // <1 µs per 4 KiB, as the paper measures

		HostMRRegBase:     30 * sim.Microsecond,
		HostMRRegPerByte:  1.0 / 10e9,
		DelegationExtra:   20 * sim.Microsecond,
		HostVerbsCallCost: 10 * sim.Microsecond,

		SCIFMsgLatency: 3 * sim.Microsecond,

		DMAEngineBandwidth: 5.5e9,
		DMAEngineLatency:   1500 * sim.Nanosecond,

		ProxySendCost:    3 * sim.Microsecond,
		ProxyRecvBase:    3 * sim.Microsecond,
		ProxyRecvPerByte: 1.0 / 0.8e9,
		ProxyBandwidth:   0.95e9,
		ProxyEagerMax:    256 << 10,

		OffloadTransferOverhead: 55 * sim.Microsecond,
		OffloadBandwidth:        3.7e9,
		OffloadLaunchBase:       40 * sim.Microsecond,
		OffloadLaunchPerThread:  2500 * sim.Nanosecond,
		OffloadInitCost:         150 * sim.Millisecond,

		PhiPackRate:        1.2e9,
		HostPackRate:       4.0e9,
		OffloadPackMinSize: 16 << 10,

		PhiCoreRate:      30e6,
		HostCoreRate:     180e6,
		OMPForkBase:      8 * sim.Microsecond,
		OMPForkPerThread: 300 * sim.Nanosecond,
		PhiScalingAlpha:  (56.0/17.9 - 1.0) / 55.0, // S(56)=17.9

		HostCores:      16,
		EagerMax:       8192,
		OffloadMinSize: 8192,
		EagerSlots:     64,
		MRCacheEntries: 64,
	}
}

// HCARead returns the HCA DMA read rate from a buffer in domain kind k.
func (p *Platform) HCARead(k machine.DomainKind) float64 {
	if k == machine.MicMem {
		return p.HCAReadPhi
	}
	return p.HCAReadHost
}

// HCAWrite returns the HCA DMA write rate into domain kind k.
func (p *Platform) HCAWrite(k machine.DomainKind) float64 {
	if k == machine.MicMem {
		return p.HCAWritePhi
	}
	return p.HCAWriteHost
}

// PostCost returns the work-request post cost for code running in k.
func (p *Platform) PostCost(k machine.DomainKind) sim.Duration {
	if k == machine.MicMem {
		return p.PhiPostCost
	}
	return p.HostPostCost
}

// PollCost returns the successful-poll cost for code running in k.
func (p *Platform) PollCost(k machine.DomainKind) sim.Duration {
	if k == machine.MicMem {
		return p.PhiPollCost
	}
	return p.HostPollCost
}

// MPIPerMsg returns the MPI software per-message overhead in k.
func (p *Platform) MPIPerMsg(k machine.DomainKind) sim.Duration {
	if k == machine.MicMem {
		return p.PhiMPIPerMsg
	}
	return p.HostMPIPerMsg
}

// CopyCost returns the local memcpy time for n bytes in domain kind k.
func (p *Platform) CopyCost(k machine.DomainKind, n int) sim.Duration {
	rate := p.HostCopyRate
	if k == machine.MicMem {
		rate = p.PhiCopyRate
	}
	return sim.Duration(float64(n) / rate * float64(sim.Second))
}

// MRRegCost is the host-side memory-registration (page pinning) time.
func (p *Platform) MRRegCost(n int) sim.Duration {
	return p.HostMRRegBase + sim.Duration(float64(n)*p.HostMRRegPerByte*float64(sim.Second))
}

// ProxyRecvCost is the proxy daemon's inbound delivery cost for an
// n-byte payload.
func (p *Platform) ProxyRecvCost(n int) sim.Duration {
	return p.ProxyRecvBase + sim.Duration(float64(n)*p.ProxyRecvPerByte*float64(sim.Second))
}

// PhiScaling returns the effective speedup S(T) of T OpenMP threads on
// the Phi for the memory-bound stencil.
func (p *Platform) PhiScaling(threads int) float64 {
	if threads <= 1 {
		return 1
	}
	t := float64(threads)
	return t / (1 + p.PhiScalingAlpha*(t-1))
}

// OMPForkCost is the per-parallel-region fork/join overhead for T
// threads in a persistent (native) OpenMP runtime.
func (p *Platform) OMPForkCost(threads int) sim.Duration {
	if threads <= 1 {
		return 0
	}
	return p.OMPForkBase + sim.Duration(threads)*p.OMPForkPerThread
}

// OffloadLaunchCost is the per-iteration offload-region invocation cost
// with T OpenMP threads awakened inside the region.
func (p *Platform) OffloadLaunchCost(threads int) sim.Duration {
	if threads < 1 {
		threads = 1
	}
	return p.OffloadLaunchBase + sim.Duration(threads)*p.OffloadLaunchPerThread
}

// TableI describes the simulated platform in the shape of the paper's
// Table I, each row mapping the original hardware/software to its
// simulated analog.
type TableIRow struct{ Component, Paper, Simulated string }

// TableI returns the platform inventory rows.
func TableI() []TableIRow {
	return []TableIRow{
		{"CPU", "Intel Xeon E5-2670 0 @ 2.60GHz x 16", "machine host domain, 16 cores @ 180e6 stencil pts/s/core"},
		{"InfiniBand HCA", "Mellanox MT27500 [ConnectX-3]", "internal/ib simulated verbs, 5.8 GB/s FDR, 0.9 µs wire"},
		{"Card", "Pre-production Intel Xeon Phi x 1", "machine mic domain, 57 cores @ 30e6 pts/s, DMA-read cap 1.25 GB/s"},
		{"Operating System", "Red Hat Enterprise Linux Server 6.2", "Go discrete-event runtime (internal/sim)"},
		{"Intel MPSS", "2.1.4982-15", "internal/scif command channel, 3 µs crossing"},
		{"Intel MPI Library", "4.1.0.027", "core.ProxyVerbs + pcie.Bus offload modes"},
		{"Intel C++ Compiler", "Composer XE 2013.0.079", "gc (Go compiler)"},
		{"IB driver for Intel MPI", "OFED-1.5.4.1", "internal/ib fabric (proxy profile)"},
		{"IB driver for DCFA-MPI", "MLNX OFED 1.5.3-3.1.0", "internal/ib fabric (direct profile)"},
	}
}
