package perfmodel

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

func TestDefaultReproducesFigure5Asymmetry(t *testing.T) {
	p := Default()
	// The paper: Phi-sourced IB transfers are >4× slower than
	// host-sourced ones, which run at the wire rate.
	if p.HCARead(machine.HostMem) != p.IBBandwidth {
		t.Fatalf("host-sourced read rate %g, want the wire rate %g", p.HCARead(machine.HostMem), p.IBBandwidth)
	}
	if ratio := p.IBBandwidth / p.HCARead(machine.MicMem); ratio < 4 {
		t.Fatalf("DMA-read asymmetry %.1f×, want >4×", ratio)
	}
}

func TestOffloadCompositeBandwidthNear2_8(t *testing.T) {
	p := Default()
	// Serialized sync+send: 1/(1/dma + 1/wire) should be ~2.8 GB/s (Fig 8).
	combined := 1 / (1/p.DMAEngineBandwidth + 1/p.IBBandwidth)
	if combined < 2.5e9 || combined > 3.1e9 {
		t.Fatalf("composite offload bandwidth %.2f GB/s, want ≈2.8", combined/1e9)
	}
}

func TestProxyCapBelow1GBs(t *testing.T) {
	p := Default()
	if p.ProxyBandwidth >= 1e9 {
		t.Fatalf("proxy bandwidth %.2f GB/s, paper says it cannot exceed 1 GB/s", p.ProxyBandwidth/1e9)
	}
}

func TestPhiScalingShape(t *testing.T) {
	p := Default()
	if s := p.PhiScaling(1); s != 1 {
		t.Fatalf("S(1)=%v, want 1", s)
	}
	if s := p.PhiScaling(0); s != 1 {
		t.Fatalf("S(0)=%v, want 1", s)
	}
	s56 := p.PhiScaling(56)
	if s56 < 17.4 || s56 > 18.4 {
		t.Fatalf("S(56)=%.2f, calibrated target 17.9", s56)
	}
	// Monotone nondecreasing and sublinear.
	prev := 0.0
	for T := 1; T <= 56; T++ {
		s := p.PhiScaling(T)
		if s < prev {
			t.Fatalf("S(%d)=%.3f < S(%d)=%.3f: not monotone", T, s, T-1, prev)
		}
		if s > float64(T) {
			t.Fatalf("S(%d)=%.3f superlinear", T, s)
		}
		prev = s
	}
}

func TestPerDomainCostSelectors(t *testing.T) {
	p := Default()
	if p.PostCost(machine.MicMem) <= p.PostCost(machine.HostMem) {
		t.Fatal("Phi post must be costlier than host post")
	}
	if p.PollCost(machine.MicMem) <= p.PollCost(machine.HostMem) {
		t.Fatal("Phi poll must be costlier than host poll")
	}
	if p.MPIPerMsg(machine.MicMem) <= p.MPIPerMsg(machine.HostMem) {
		t.Fatal("Phi MPI per-message must be costlier than host")
	}
}

func TestPhiCopyCostUnder1usPer4K(t *testing.T) {
	p := Default()
	// Paper: "the data copy operation on the Xeon Phi spends less than
	// 1 microsecond for 4Kbytes".
	if c := p.CopyCost(machine.MicMem, 4096); c >= sim.Microsecond {
		t.Fatalf("4 KiB Phi copy costs %v, want <1µs", c)
	}
	if c := p.CopyCost(machine.HostMem, 4096); c >= p.CopyCost(machine.MicMem, 4096) {
		t.Fatalf("host copy (%v) should be faster than Phi copy", c)
	}
}

func TestMRRegCostGrowsWithSize(t *testing.T) {
	p := Default()
	small := p.MRRegCost(4096)
	large := p.MRRegCost(1 << 20)
	if large <= small {
		t.Fatal("MR registration cost must grow with size")
	}
	if small < p.HostMRRegBase {
		t.Fatal("MR registration below base cost")
	}
}

func TestOffloadLaunchGrowsWithThreads(t *testing.T) {
	p := Default()
	if p.OffloadLaunchCost(56) <= p.OffloadLaunchCost(1) {
		t.Fatal("launch cost must grow with thread count")
	}
	if p.OffloadLaunchCost(0) != p.OffloadLaunchCost(1) {
		t.Fatal("launch cost with 0 threads should clamp to 1")
	}
}

func TestOMPForkCost(t *testing.T) {
	p := Default()
	if p.OMPForkCost(1) != 0 {
		t.Fatal("single-thread region must have no fork cost")
	}
	if p.OMPForkCost(56) <= p.OMPForkCost(2) {
		t.Fatal("fork cost must grow with threads")
	}
}

func TestDCFAMPIFourByteRTTBudget(t *testing.T) {
	p := Default()
	// Analytical one-way cost of a 4-byte eager message on DCFA-MPI,
	// mirroring the protocol layer's cost composition; the paper
	// measures ~15 µs RTT vs Intel-on-Phi's 28 µs.
	oneWay := p.PhiMPIPerMsg + p.PhiPostCost + p.IBLatency + p.PhiPollCost
	rtt := 2 * oneWay
	if rtt < 13*sim.Microsecond || rtt > 18*sim.Microsecond {
		t.Fatalf("DCFA-MPI 4B RTT budget %v, want ≈15µs", rtt)
	}
	proxied := 2 * (oneWay + p.ProxySendCost + p.ProxyRecvCost(4))
	if proxied < 24*sim.Microsecond || proxied > 32*sim.Microsecond {
		t.Fatalf("Intel-on-Phi 4B RTT budget %v, want ≈28µs", proxied)
	}
}

func TestTableIComplete(t *testing.T) {
	rows := Default().TableI()
	if len(rows) != 9 {
		t.Fatalf("Table I has %d rows, want 9 (as in the paper)", len(rows))
	}
	for _, r := range rows {
		if r.Component == "" || r.Paper == "" || r.Simulated == "" {
			t.Fatalf("incomplete row %+v", r)
		}
	}
}

func TestTopologyMatchesPaper(t *testing.T) {
	p := Default()
	if p.HostCores != 16 {
		t.Fatalf("host cores=%d, Table I lists 16", p.HostCores)
	}
}

func TestTableIFollowsThePlatform(t *testing.T) {
	p := Default()
	p.IBBandwidth = 7e9
	if hca := p.TableI()[1].Simulated; !strings.Contains(hca, "7 GB/s") {
		t.Fatalf("HCA row %q, want the platform's 7 GB/s", hca)
	}
}
