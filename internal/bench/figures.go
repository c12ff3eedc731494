package bench

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/stencil"
)

// defaultIters balances sweep stability and simulation cost.
const defaultIters = 10

// Figure5 reproduces "InfiniBand communication with different data
// transfer directions": raw RDMA-write bandwidth for the four
// host/Phi source/destination combinations.
func (e *Env) Figure5(plat *perfmodel.Platform) *Figure {
	sizes := MsgSizes()
	dirs := []struct {
		label    string
		src, dst machine.DomainKind
	}{
		{"host->host", machine.HostMem, machine.HostMem},
		{"host->phi", machine.HostMem, machine.MicMem},
		{"phi->host", machine.MicMem, machine.HostMem},
		{"phi->phi", machine.MicMem, machine.MicMem},
	}
	f := &Figure{
		ID:     "Figure 5",
		Title:  "Raw IB RDMA-write bandwidth by direction",
		XLabel: "bytes",
		YLabel: "GB/s",
	}
	for _, d := range dirs {
		s := Series{Label: d.label}
		for _, n := range sizes {
			t := e.RawOneWay(plat, d.src, d.dst, n, defaultIters)
			s.Points = append(s.Points, Point{X: n, Y: gbps(n, t)})
		}
		f.Series = append(f.Series, s)
	}
	hh, _ := f.Series[0].At(4 << 20)
	ph, _ := f.Series[2].At(4 << 20)
	f.Notes = append(f.Notes, fmt.Sprintf(
		"Phi-sourced transfers %.1f× slower than host-sourced at 4 MiB (paper: >4×)", hh/ph))
	return f
}

// Figure7 reproduces "Evaluation of DCFA-MPI with offloading send
// buffer design using non-blocking inter-node MPI communication": the
// exchange round-trip time for DCFA-MPI with and without the offload
// design, against the host MPI.
func (e *Env) Figure7(plat *perfmodel.Platform) *Figure {
	sizes := MsgSizes()
	f := &Figure{
		ID:     "Figure 7",
		Title:  "Non-blocking exchange RTT (MPI_Isend/MPI_Irecv)",
		XLabel: "bytes",
		YLabel: "µs",
	}
	for _, m := range []cluster.Mode{cluster.ModeDCFABase, cluster.ModeDCFA, cluster.ModeHost} {
		ts := e.NonblockingExchangeTimes(plat, m, sizes, defaultIters)
		s := Series{Label: modeLabels[m]}
		for i, n := range sizes {
			s.Points = append(s.Points, Point{X: n, Y: usec(ts[i])})
		}
		f.Series = append(f.Series, s)
	}
	off, _ := f.ByLabel(modeLabels[cluster.ModeDCFA])
	host, _ := f.ByLabel(modeLabels[cluster.ModeHost])
	o, _ := off.At(1 << 20)
	h, _ := host.At(1 << 20)
	f.Notes = append(f.Notes, fmt.Sprintf(
		"offloaded DCFA-MPI %.1f× the host RTT at 1 MiB (paper: \"only 2 times slower\")", o/h))
	return f
}

// Figure8 is Figure 7's sweep expressed as bandwidth: the offloading
// design lifts inter-node bandwidth to ~2.8 GB/s.
func (e *Env) Figure8(plat *perfmodel.Platform) *Figure {
	sizes := MsgSizes()
	f := &Figure{
		ID:     "Figure 8",
		Title:  "Inter-node MPI bandwidth with the offloading send buffer",
		XLabel: "bytes",
		YLabel: "GB/s per direction",
	}
	for _, m := range []cluster.Mode{cluster.ModeDCFABase, cluster.ModeDCFA, cluster.ModeHost} {
		ts := e.NonblockingExchangeTimes(plat, m, sizes, defaultIters)
		s := Series{Label: modeLabels[m]}
		for i, n := range sizes {
			s.Points = append(s.Points, Point{X: n, Y: gbps(n, ts[i])})
		}
		f.Series = append(f.Series, s)
	}
	off, _ := f.ByLabel(modeLabels[cluster.ModeDCFA])
	peak := 0.0
	for _, p := range off.Points {
		if p.Y > peak {
			peak = p.Y
		}
	}
	f.Notes = append(f.Notes, fmt.Sprintf("offloaded peak %.2f GB/s (paper: 2.8 GB/s)", peak))
	return f
}

// Figure9 reproduces the blocking ping-pong bandwidth comparison of
// DCFA-MPI against 'Intel MPI on Xeon Phi co-processors'.
func (e *Env) Figure9(plat *perfmodel.Platform) *Figure {
	sizes := MsgSizes()
	f := &Figure{
		ID:     "Figure 9",
		Title:  "Blocking ping-pong bandwidth: DCFA-MPI vs Intel MPI on Phi",
		XLabel: "bytes",
		YLabel: "GB/s (size / (RTT/2))",
	}
	var rtt4 [2]sim.Duration
	for i, m := range []cluster.Mode{cluster.ModeDCFA, cluster.ModeIntelPhi} {
		ts := e.BlockingPingPongRTTs(plat, m, sizes, defaultIters)
		s := Series{Label: modeLabels[m]}
		for j, n := range sizes {
			s.Points = append(s.Points, Point{X: n, Y: gbps(n, ts[j]/2)})
			if n == 4 {
				rtt4[i] = ts[j]
			}
		}
		f.Series = append(f.Series, s)
	}
	d, _ := f.Series[0].At(4 << 20)
	x, _ := f.Series[1].At(4 << 20)
	f.Notes = append(f.Notes,
		fmt.Sprintf("4-byte RTT: DCFA-MPI %.1f µs vs Intel-on-Phi %.1f µs (paper: 15 vs 28)",
			usec(rtt4[0]), usec(rtt4[1])),
		fmt.Sprintf("4 MiB bandwidth ratio %.2f× (paper: 3×)", d/x))
	return f
}

// Figure10 reproduces the communication-only application comparison of
// DCFA-MPI against 'Intel MPI on Xeon + offload' (Table II workload).
func (e *Env) Figure10(plat *perfmodel.Platform) *Figure {
	sizes := MsgSizes()
	f := &Figure{
		ID:     "Figure 10",
		Title:  "Communication-only application per-iteration time",
		XLabel: "bytes",
		YLabel: "µs per iteration",
	}
	// Under DCFA-MPI the data stays in co-processor memory and only the
	// MPI exchange happens.
	dc := e.NonblockingExchangeTimes(plat, cluster.ModeDCFA, sizes, defaultIters)
	ho := e.CommOnlyHostOffload(plat, sizes, defaultIters)
	sd := Series{Label: "DCFA-MPI"}
	sh := Series{Label: "IntelMPI-Xeon+offload"}
	sr := Series{Label: "speedup"}
	for i, n := range sizes {
		sd.Points = append(sd.Points, Point{X: n, Y: usec(dc[i])})
		sh.Points = append(sh.Points, Point{X: n, Y: usec(ho[i])})
		sr.Points = append(sr.Points, Point{X: n, Y: float64(ho[i]) / float64(dc[i])})
	}
	f.Series = []Series{sd, sh, sr}
	small, _ := sr.At(64)
	large, _ := sr.At(1 << 20)
	f.Notes = append(f.Notes,
		fmt.Sprintf("speedup %.1f× at 64 B (paper: 12× below 128 B)", small),
		fmt.Sprintf("speedup %.1f× at 1 MiB (paper: 2× above 512 KiB)", large))
	return f
}

// stencilTime runs one stencil configuration in benchmark mode and
// returns the per-iteration time.
func (e *Env) stencilTime(plat *perfmodel.Platform, m cluster.Mode, procs, threads int) sim.Duration {
	pr := stencil.Params{N: 1280, Iters: e.StencilIters, Procs: procs, Threads: threads, SkipCompute: true}
	res, err := stencil.Run(e.Cluster(plat, procs), m, pr)
	if err != nil {
		panic(err)
	}
	return res.PerIter
}

// stencilModes are the three libraries of Figures 11 and 12, under the
// names those figures use (DCFA-MPI there means with the offload
// design).
var stencilModes = []struct {
	mode  cluster.Mode
	label string
}{
	{cluster.ModeDCFA, "DCFA-MPI"},
	{cluster.ModeIntelPhi, modeLabels[cluster.ModeIntelPhi]},
	{cluster.ModeHostOffload, modeLabels[cluster.ModeHostOffload]},
}

// Figure11 reproduces "Processing time of five point stencil
// computation with different number of MPI processes" for the three
// libraries, at 1 and 56 OpenMP threads.
func (e *Env) Figure11(plat *perfmodel.Platform) *Figure {
	f := &Figure{
		ID:     "Figure 11",
		Title:  "Five-point stencil per-iteration processing time vs MPI processes",
		XLabel: "procs",
		YLabel: "ms per iteration",
	}
	for _, threads := range []int{1, 56} {
		for _, m := range stencilModes {
			s := Series{Label: fmt.Sprintf("%s T=%d", m.label, threads)}
			for _, procs := range []int{1, 2, 4, 8} {
				t := e.stencilTime(plat, m.mode, procs, threads)
				s.Points = append(s.Points, Point{X: procs, Y: float64(t) / float64(sim.Millisecond)})
			}
			f.Series = append(f.Series, s)
		}
	}
	return f
}

// Figure12 reproduces "Speed-up of five point stencil computation with
// different number of OpenMP threads ... comparing to the serial
// program" at 8 MPI processes.
func (e *Env) Figure12(plat *perfmodel.Platform) *Figure {
	f := &Figure{
		ID:     "Figure 12",
		Title:  "Five-point stencil speed-up over the serial program (8 MPI procs)",
		XLabel: "threads",
		YLabel: "speed-up ×",
	}
	ser, err := stencil.RunSerial(plat, stencil.Params{N: 1280, Iters: e.StencilIters, SkipCompute: true})
	if err != nil {
		panic(err)
	}
	serial := ser.PerIter
	threads := []int{1, 2, 4, 8, 16, 28, 56}
	for _, m := range stencilModes {
		s := Series{Label: m.label}
		for _, t := range threads {
			pt := e.stencilTime(plat, m.mode, 8, t)
			s.Points = append(s.Points, Point{X: t, Y: float64(serial) / float64(pt)})
		}
		f.Series = append(f.Series, s)
	}
	var at56 [3]float64
	for i, s := range f.Series {
		at56[i], _ = s.At(56)
	}
	f.Notes = append(f.Notes, fmt.Sprintf(
		"at 8×56: DCFA-MPI %.0f×, Intel-on-Phi %.0f×, Xeon+offload %.0f× (paper: 117/113/74)",
		at56[0], at56[1], at56[2]))
	return f
}

// AllFigures regenerates every evaluation figure.
func (e *Env) AllFigures(plat *perfmodel.Platform) []*Figure {
	return []*Figure{
		e.Figure5(plat), e.Figure7(plat), e.Figure8(plat),
		e.Figure9(plat), e.Figure10(plat), e.Figure11(plat), e.Figure12(plat),
	}
}

// RenderEvaluation writes the whole §V reproduction — Tables I–III and
// every figure — the way `dcfabench -all` prints it.
func (e *Env) RenderEvaluation(w io.Writer, plat *perfmodel.Platform) {
	Table1(w, plat)
	Table2(w)
	Table3(w)
	for _, f := range e.AllFigures(plat) {
		f.Render(w)
	}
}
