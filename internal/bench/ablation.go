package bench

import (
	"fmt"

	"repro/internal/cg"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// Ablations isolate the design choices DESIGN.md calls out: the
// offload-send-buffer threshold (the paper: "The message size at the
// beginning of offloading should be tuned ... 8Kbytes shows the best
// performance"), the eager/rendezvous switch, the MR cache pool, the
// eager ring depth, and the future-work datatype-pack offload.

// exchangeSweep measures per-size Sendrecv exchange times on w, after
// one warm-up exchange per size to amortize registrations.
func exchangeSweep(w *core.World, sizes []int, iters int) []sim.Duration {
	return timeSizes(w, sizes, iters, 1, func(r *core.Rank, tag, n int) func() error {
		sb, rb := r.Mem(n), r.Mem(n)
		other := 1 - r.ID()
		return func() error {
			_, err := r.Sendrecv(r.Proc(), other, tag, core.Whole(sb), other, tag, core.Whole(rb))
			return err
		}
	})
}

// AblationOffloadThreshold sweeps the offloading start size. For each
// threshold t the eager switch is min(t, 8 KiB), so messages between
// the switch and t use the direct (slow) rendezvous path — exactly the
// trade-off the paper tuned. The Y value is the total time of one
// exchange at each probe size; the "total" series exposes the optimum.
func (e *Env) AblationOffloadThreshold(plat *perfmodel.Platform) *Figure {
	thresholds := []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10}
	probes := []int{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 256 << 10}
	f := &Figure{
		ID:     "Ablation A1",
		Title:  "Offload-send-buffer threshold tuning (paper §IV-B4: 8 KiB optimal)",
		XLabel: "threshold",
		YLabel: "µs per exchange (sum over probe sizes)",
	}
	var total Series
	total.Label = "sum over probe sizes"
	perProbe := make([]Series, len(probes))
	for i, n := range probes {
		perProbe[i].Label = fmt.Sprintf("%s msg", formatX(n))
	}
	for _, t := range thresholds {
		w := e.tunedWorld(plat, cluster.ModeDCFA, 2, func(cfg *core.Config) {
			cfg.OffloadMinSize = t
			cfg.EagerMax = min(cfg.EagerMax, t)
		})
		ts := exchangeSweep(w, probes, defaultIters)
		sum := 0.0
		for i := range probes {
			perProbe[i].Points = append(perProbe[i].Points, Point{X: t, Y: usec(ts[i])})
			sum += usec(ts[i])
		}
		total.Points = append(total.Points, Point{X: t, Y: sum})
	}
	f.Series = append(perProbe, total)
	best, bestY := 0, 0.0
	for _, p := range total.Points {
		if best == 0 || p.Y < bestY {
			best, bestY = p.X, p.Y
		}
	}
	f.Notes = append(f.Notes, fmt.Sprintf("best threshold %s (paper tuned to 8K)", formatX(best)))
	return f
}

// AblationEagerThreshold sweeps the eager/rendezvous switch with the
// offload design disabled, isolating the one-copy vs zero-copy
// trade-off on the co-processor.
func (e *Env) AblationEagerThreshold(plat *perfmodel.Platform) *Figure {
	thresholds := []int{1 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10}
	probes := []int{512, 2 << 10, 8 << 10, 32 << 10}
	f := &Figure{
		ID:     "Ablation A2",
		Title:  "Eager/rendezvous switch (offload disabled)",
		XLabel: "eager max",
		YLabel: "µs per exchange",
	}
	perProbe := make([]Series, len(probes))
	for i, n := range probes {
		perProbe[i].Label = fmt.Sprintf("%s msg", formatX(n))
	}
	for _, t := range thresholds {
		w := e.tunedWorld(plat, cluster.ModeDCFABase, 2, func(cfg *core.Config) { cfg.EagerMax = t })
		ts := exchangeSweep(w, probes, defaultIters)
		for i := range probes {
			perProbe[i].Points = append(perProbe[i].Points, Point{X: t, Y: usec(ts[i])})
		}
	}
	f.Series = perProbe
	return f
}

// AblationMRCache compares the buffer cache pool against per-message
// registration on a buffer-reusing rendezvous workload (the paper: the
// pool "can only benefit applications which always reuse a few
// buffers").
func (e *Env) AblationMRCache(plat *perfmodel.Platform) *Figure {
	f := &Figure{
		ID:     "Ablation A3",
		Title:  "MR cache pool vs per-message registration (64 KiB rendezvous, reused buffers)",
		XLabel: "cache entries",
		YLabel: "µs per exchange",
	}
	var s Series
	s.Label = "64K exchange"
	for _, cap := range []int{1, 2, 4, 64} {
		// No offload design: force user-buffer registration.
		w := e.tunedWorld(plat, cluster.ModeDCFABase, 2, func(cfg *core.Config) { cfg.MRCacheCap = cap })
		ts := exchangeSweep(w, []int{64 << 10}, defaultIters)
		s.Points = append(s.Points, Point{X: cap, Y: usec(ts[0])})
	}
	f.Series = []Series{s}
	worst := s.Points[0].Y
	bestY := s.Points[len(s.Points)-1].Y
	f.Notes = append(f.Notes, fmt.Sprintf("cache saves %.1f µs per exchange (%.1f×)", worst-bestY, worst/bestY))
	return f
}

// AblationRingDepth varies the eager ring depth under a one-way burst:
// shallow rings stall on credits.
func (e *Env) AblationRingDepth(plat *perfmodel.Platform) *Figure {
	f := &Figure{
		ID:     "Ablation A4",
		Title:  "Eager ring depth under a 128-message burst",
		XLabel: "slots",
		YLabel: "µs per message",
	}
	var s Series
	s.Label = "1 KiB burst"
	const burst = 128
	for _, slots := range []int{2, 4, 8, 16, 64} {
		w := e.tunedWorld(plat, cluster.ModeDCFA, 2, func(cfg *core.Config) { cfg.EagerSlots = slots })
		var per sim.Duration
		err := w.Run(func(r *core.Rank) error {
			p := r.Proc()
			if err := r.Barrier(p); err != nil {
				return err
			}
			if r.ID() == 0 {
				reqs := make([]*core.Request, burst)
				start := p.Now()
				for i := range reqs {
					b := r.Mem(1024)
					var err error
					reqs[i], err = r.Isend(p, 1, 1, core.Whole(b))
					if err != nil {
						return err
					}
				}
				if err := r.WaitAll(p, reqs...); err != nil {
					return err
				}
				per = (p.Now() - start) / burst
				return nil
			}
			for i := 0; i < burst; i++ {
				b := r.Mem(1024)
				if _, err := r.Recv(p, 0, 1, core.Whole(b)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			panic(err)
		}
		s.Points = append(s.Points, Point{X: slots, Y: usec(per)})
	}
	f.Series = []Series{s}
	return f
}

// AblationDatatypePack compares local vs host-offloaded noncontiguous
// packing across packed sizes — the paper's §VI future-work proposal.
func (e *Env) AblationDatatypePack(plat *perfmodel.Platform) *Figure {
	f := &Figure{
		ID:     "Ablation A5",
		Title:  "Datatype pack: Phi-local vs host-offloaded (future work, §VI)",
		XLabel: "packed bytes",
		YLabel: "µs per typed send",
	}
	sizes := []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
	measure := func(offload bool) Series {
		var s Series
		if offload {
			s.Label = "host-offloaded pack"
		} else {
			s.Label = "Phi-local pack"
		}
		for _, n := range sizes {
			w := e.tunedWorld(plat, cluster.ModeDCFA, 2, func(cfg *core.Config) {
				cfg.OffloadDatatypePack = offload
				cfg.OffloadPackMinSize = 1 // always offload when enabled
			})
			blocks := n / 64
			dt := core.Vector(blocks, 8, 16, 8) // 64-byte blocks, half-dense
			var elapsed sim.Duration
			err := w.Run(func(r *core.Rank) error {
				p := r.Proc()
				buf := r.Mem(dt.Extent())
				if err := r.Barrier(p); err != nil {
					return err
				}
				if r.ID() == 0 {
					// Warmup then timed sends.
					if err := r.SendTyped(p, 1, 0, core.Whole(buf), dt); err != nil {
						return err
					}
					start := p.Now()
					for i := 0; i < 5; i++ {
						if err := r.SendTyped(p, 1, 0, core.Whole(buf), dt); err != nil {
							return err
						}
					}
					elapsed = (p.Now() - start) / 5
					return nil
				}
				for i := 0; i < 6; i++ {
					if _, err := r.RecvTyped(p, 0, 0, core.Whole(buf), dt); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				panic(err)
			}
			s.Points = append(s.Points, Point{X: n, Y: usec(elapsed)})
		}
		return s
	}
	f.Series = []Series{measure(false), measure(true)}
	local := f.Series[0]
	off := f.Series[1]
	for i := range sizes {
		if off.Points[i].Y < local.Points[i].Y {
			f.Notes = append(f.Notes, fmt.Sprintf("offload wins from %s packed", formatX(sizes[i])))
			break
		}
	}
	return f
}

// AblationCollectives measures Allreduce latency scaling with rank
// count under DCFA-MPI and the proxied Intel mode — the collective cost
// the paper defers to future work ("some heavy functions, such as
// collective communication ... are planned to be offloaded").
func (e *Env) AblationCollectives(plat *perfmodel.Platform) *Figure {
	f := &Figure{
		ID:     "Ablation A6",
		Title:  "Allreduce latency vs rank count (8 B and 64 KiB payloads)",
		XLabel: "ranks",
		YLabel: "µs per allreduce",
	}
	payloads := []int{8, 64 << 10}
	for _, m := range []cluster.Mode{cluster.ModeDCFA, cluster.ModeIntelPhi} {
		for _, n := range payloads {
			s := Series{Label: fmt.Sprintf("%s %s", modeLabels[m], formatX(n))}
			for _, ranks := range []int{2, 4, 8} {
				var per sim.Duration
				err := e.world(plat, m, ranks).Run(func(r *core.Rank) error {
					p := r.Proc()
					buf := r.Mem(n)
					// Warmup.
					if err := r.Allreduce(p, core.Whole(buf), core.OpSumF64); err != nil {
						return err
					}
					if err := r.Barrier(p); err != nil {
						return err
					}
					start := p.Now()
					const iters = 5
					for i := 0; i < iters; i++ {
						if err := r.Allreduce(p, core.Whole(buf), core.OpSumF64); err != nil {
							return err
						}
					}
					if r.ID() == 0 {
						per = (p.Now() - start) / iters
					}
					return nil
				})
				if err != nil {
					panic(err)
				}
				s.Points = append(s.Points, Point{X: ranks, Y: usec(per)})
			}
			f.Series = append(f.Series, s)
		}
	}
	return f
}

// AblationCG runs the Conjugate Gradient workload (internal/cg) across
// modes and process counts: a second full application exercising the
// halo-exchange + Allreduce pattern on the library.
func (e *Env) AblationCG(plat *perfmodel.Platform) *Figure {
	f := &Figure{
		ID:     "Ablation A7",
		Title:  "Conjugate Gradient (256² Poisson, 30 iters) time per iteration",
		XLabel: "procs",
		YLabel: "µs per iteration",
	}
	for _, m := range []cluster.Mode{cluster.ModeDCFA, cluster.ModeIntelPhi, cluster.ModeHost} {
		s := Series{Label: modeLabels[m]}
		for _, procs := range []int{1, 2, 4, 8} {
			pr := cg.Params{N: 256, MaxIter: 30, Tol: 1e-30, Procs: procs, Threads: 16}
			res, err := cg.RunWorld(e.world(plat, m, procs), pr)
			if err != nil {
				panic(err)
			}
			s.Points = append(s.Points, Point{X: procs, Y: usec(res.PerIter)})
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// ablations lists the studies in A1…A7 order under the names
// dcfabench's -ablation flag takes.
var ablations = []struct {
	name string
	run  func(*Env, *perfmodel.Platform) *Figure
}{
	{"threshold", (*Env).AblationOffloadThreshold},
	{"eager", (*Env).AblationEagerThreshold},
	{"mrcache", (*Env).AblationMRCache},
	{"ringdepth", (*Env).AblationRingDepth},
	{"pack", (*Env).AblationDatatypePack},
	{"collectives", (*Env).AblationCollectives},
	{"cg", (*Env).AblationCG},
}

// AblationNames lists the ablation studies in A1…A7 order.
func AblationNames() []string {
	names := make([]string, len(ablations))
	for i, a := range ablations {
		names[i] = a.name
	}
	return names
}

// Ablations regenerates the named ablation figure, or every one in
// order for "all"; nil means the name is unknown.
func (e *Env) Ablations(plat *perfmodel.Platform, name string) []*Figure {
	var figs []*Figure
	for _, a := range ablations {
		if name == a.name || name == "all" {
			figs = append(figs, a.run(e, plat))
		}
	}
	return figs
}
