package repro

// Benchmarks regenerating the paper's evaluation, one per table and
// figure. The interesting output is the custom metrics reported via
// b.ReportMetric — simulated GB/s, µs and speed-ups on the virtual
// clock — not the host wall time of running the simulator.
//
//	go test -bench=. -benchmem

import (
	"io"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

func BenchmarkTable1Platform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table1(io.Discard)
		bench.Table2(io.Discard, bench.NewEnv().MsgSizes)
		bench.Table3(io.Discard)
	}
}

func BenchmarkFig5RDMADirections(b *testing.B) {
	env := bench.NewEnv()
	plat := perfmodel.Default()
	const n = 1 << 20
	var hh, pp sim.Duration
	for i := 0; i < b.N; i++ {
		hh = env.RawOneWay(plat, machine.HostMem, machine.HostMem, n, 3)
		pp = env.RawOneWay(plat, machine.MicMem, machine.MicMem, n, 3)
	}
	b.ReportMetric(float64(n)/(float64(hh)/1e9)/1e9, "host-host-GB/s")
	b.ReportMetric(float64(n)/(float64(pp)/1e9)/1e9, "phi-phi-GB/s")
	b.ReportMetric(float64(pp)/float64(hh), "asymmetry-x")
}

func BenchmarkFig7NonblockingRTT(b *testing.B) {
	env := bench.NewEnv()
	plat := perfmodel.Default()
	sizes := []int{4, 8192, 1 << 20}
	var base, off, host []sim.Duration
	for i := 0; i < b.N; i++ {
		base = env.NonblockingExchangeTimes(plat, cluster.ModeDCFABase, sizes, 5)
		off = env.NonblockingExchangeTimes(plat, cluster.ModeDCFA, sizes, 5)
		host = env.NonblockingExchangeTimes(plat, cluster.ModeHost, sizes, 5)
	}
	b.ReportMetric(off[2].Micros(), "offload-1MiB-µs")
	b.ReportMetric(base[2].Micros(), "base-1MiB-µs")
	b.ReportMetric(float64(off[2])/float64(host[2]), "vs-host-x")
}

func BenchmarkFig8OffloadBandwidth(b *testing.B) {
	env := bench.NewEnv()
	plat := perfmodel.Default()
	sizes := []int{4 << 20}
	var off []sim.Duration
	for i := 0; i < b.N; i++ {
		off = env.NonblockingExchangeTimes(plat, cluster.ModeDCFA, sizes, 5)
	}
	b.ReportMetric(float64(4<<20)/(float64(off[0])/1e9)/1e9, "GB/s")
}

func BenchmarkFig9BlockingBandwidth(b *testing.B) {
	env := bench.NewEnv()
	plat := perfmodel.Default()
	sizes := []int{4, 4 << 20}
	var dcfa, phi []sim.Duration
	for i := 0; i < b.N; i++ {
		dcfa = env.BlockingPingPongRTTs(plat, cluster.ModeDCFA, sizes, 5)
		phi = env.BlockingPingPongRTTs(plat, cluster.ModeIntelPhi, sizes, 5)
	}
	b.ReportMetric(dcfa[0].Micros(), "dcfa-4B-RTT-µs")
	b.ReportMetric(phi[0].Micros(), "phi-4B-RTT-µs")
	b.ReportMetric(float64(phi[1])/float64(dcfa[1]), "4MiB-speedup-x")
}

func BenchmarkFig10CommOnly(b *testing.B) {
	env := bench.NewEnv()
	plat := perfmodel.Default()
	sizes := []int{64, 1 << 20}
	var d, h []sim.Duration
	for i := 0; i < b.N; i++ {
		d = env.CommOnlyDCFA(plat, sizes, 5)
		h = env.CommOnlyHostOffload(plat, sizes, 5)
	}
	b.ReportMetric(float64(h[0])/float64(d[0]), "64B-speedup-x")
	b.ReportMetric(float64(h[1])/float64(d[1]), "1MiB-speedup-x")
}

func BenchmarkFig11StencilTime(b *testing.B) {
	env := bench.NewEnv()
	env.StencilIters = 5
	plat := perfmodel.Default()
	var f *bench.Figure
	for i := 0; i < b.N; i++ {
		f = env.Figure11(plat)
	}
	if s, ok := f.ByLabel("DCFA-MPI T=56"); ok {
		if y, ok := s.At(8); ok {
			b.ReportMetric(y*1000, "dcfa-8p56t-µs/iter")
		}
	}
}

func BenchmarkFig12StencilSpeedup(b *testing.B) {
	env := bench.NewEnv()
	env.StencilIters = 5
	plat := perfmodel.Default()
	var f *bench.Figure
	for i := 0; i < b.N; i++ {
		f = env.Figure12(plat)
	}
	for _, name := range []string{"DCFA-MPI", "IntelMPI-on-Phi", "IntelMPI-Xeon+offload"} {
		if s, ok := f.ByLabel(name); ok {
			if y, ok := s.At(56); ok {
				b.ReportMetric(y, name+"-x")
			}
		}
	}
}
