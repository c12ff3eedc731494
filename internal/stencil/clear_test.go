package stencil

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/omp"
	"repro/internal/perfmodel"
)

// flagsLie names the first owned row of l whose flag says clear while a
// cell the sweep writes is not +0, in either buffer, or returns "".
// Ghost rows and each row's first and last cell are left out: the
// exchange writes them between sweeps, and refreshClear catches up with
// it before the flags are read.
func flagsLie(l *slab) string {
	for _, b := range []struct {
		name  string
		g     []float64
		flags []bool
	}{{"cur", f64view(l.cur.Data), l.curClear}, {"next", f64view(l.next.Data), l.nextClear}} {
		for r := 1; r <= l.rows; r++ {
			if b.flags[r] && !zeroRow(b.g[r*l.w+1:(r+1)*l.w-1]) {
				return fmt.Sprintf("%s row %d is flagged clear but is not", b.name, r)
			}
		}
	}
	return ""
}

// seedSparse fills g, a grid w cells wide, with runs of one to four rows
// of one kind each: +0, −0.0, +0 and −0.0 mixed, a few normal values, or
// a few subnormal values. Most rows are +0.
func seedSparse(rng *rand.Rand, g []float64, w int) {
	rows := len(g) / w
	for r := 0; r < rows; {
		kind, run := rng.Intn(8), 1+rng.Intn(4)
		for ; run > 0 && r < rows; run, r = run-1, r+1 {
			row := g[r*w : (r+1)*w]
			clear(row)
			switch kind {
			case 0:
				for c := range row {
					row[c] = math.Copysign(0, -1)
				}
			case 1:
				for c := range row {
					if rng.Intn(2) == 0 {
						row[c] = math.Copysign(0, -1)
					}
				}
			case 2:
				for i := 0; i < 1+rng.Intn(3); i++ {
					row[rng.Intn(w)] = (rng.Float64() - 0.25) * math.Ldexp(1, rng.Intn(41)-20)
				}
			case 3:
				for i := 0; i < 1+rng.Intn(3); i++ {
					row[rng.Intn(w)] = math.Float64frombits(1 + uint64(rng.Intn(1<<20)))
				}
			}
		}
	}
}

// rewriteGhosts does what an exchange might between two sweeps, the same
// to both grids: heat arrives in a ghost row (from below or above) or in
// ghost columns (from the side), or a ghost row or column goes back to
// all zeros, or to −0.0.
func rewriteGhosts(rng *rand.Rand, a, b []float64, w int) {
	rows := len(a)/w - 2
	set := func(i int, v float64) { a[i], b[i] = v, v }
	ghost := []int{0, rows + 1}[rng.Intn(2)]
	switch rng.Intn(6) {
	case 0: // heat arrives in a ghost row
		for c := 0; c < w; c++ {
			set(ghost*w+c, rng.Float64())
		}
	case 1: // heat arrives from the side, in a few rows
		for i := 0; i < 1+rng.Intn(3); i++ {
			r := 1 + rng.Intn(rows)
			set(r*w+[]int{0, w - 1}[rng.Intn(2)], math.Ldexp(rng.Float64(), -rng.Intn(1060)))
		}
	case 2: // a ghost row goes back to all zeros
		for c := 0; c < w; c++ {
			set(ghost*w+c, 0)
		}
	case 3: // both ghost columns go back to all zeros
		for r := 1; r <= rows; r++ {
			set(r*w, 0)
			set(r*w+w-1, 0)
		}
	case 4: // a ghost row of −0.0
		for c := 0; c < w; c++ {
			set(ghost*w+c, math.Copysign(0, -1))
		}
	}
}

func TestClearRowSweepMatchesDenseKernel(t *testing.T) {
	// A row once computed is computed in every later sweep, so the slabs
	// are seeded afresh every 20 sweeps.
	const rows, sweeps, reseed = 12, 80, 20
	plat := perfmodel.Default()
	one := omp.NewTeam(plat, 1, machine.MicMem)
	four := omp.NewTeam(plat, 4, machine.MicMem)
	runs := []struct {
		name    string
		compute func(l *slab)
	}{
		{"execute-1-thread", func(l *slab) { l.compute(one) }},
		// Several chunks on real goroutines when GOMAXPROCS ≥ 2.
		{"execute-4-threads", func(l *slab) { l.compute(four) }},
		// The chunks omp.Execute makes for 5 workers, one after another,
		// whatever GOMAXPROCS is.
		{"5-chunks", func(l *slab) {
			refreshClear(l.curClear, f64view(l.cur.Data), l.w)
			const chunk = (rows + 4) / 5
			for lo := 0; lo < rows; lo += chunk {
				l.body(lo, min(lo+chunk, rows))
			}
		}},
	}
	// 1-D slabs are N+2 wide and 2-D blocks cols+2: 3 to 1282 covers
	// both.
	for _, w := range []int{3, 4, 5, 18, 66, 1282} {
		for _, run := range runs {
			rng := rand.New(rand.NewSource(int64(w)))
			l := newSlab(machine.NewNode(0).Mic, rows, w, false)
			var dc, dn []float64
			for s := 0; s < sweeps; s++ {
				if s%reseed == 0 {
					cur, next := f64view(l.cur.Data), f64view(l.next.Data)
					seedSparse(rng, cur, w)
					seedSparse(rng, next, w)
					l.curClear, l.nextClear = markClear(cur, w), markClear(next, w)
					dc, dn = append(dc[:0], cur...), append(dn[:0], next...)
				}
				rewriteGhosts(rng, f64view(l.cur.Data), dc, w)
				run.compute(l)
				l.swap()
				jacobiRows(dn, dc, w, 0, rows)
				dc, dn = dn, dc
				for _, b := range []struct {
					name      string
					got, want []float64
				}{{"cur", f64view(l.cur.Data), dc}, {"next", f64view(l.next.Data), dn}} {
					for i := range b.want {
						if math.Float64bits(b.got[i]) != math.Float64bits(b.want[i]) {
							t.Fatalf("w=%d %s, after sweep %d: %s cell (%d,%d) = %v (%#x), dense kernel %v (%#x)",
								w, run.name, s, b.name, i/w, i%w, b.got[i], math.Float64bits(b.got[i]),
								b.want[i], math.Float64bits(b.want[i]))
						}
					}
				}
				if msg := flagsLie(l); msg != "" {
					t.Fatalf("w=%d %s, after sweep %d: %s", w, run.name, s, msg)
				}
			}
			if l.computed == int64(rows*sweeps) {
				t.Errorf("w=%d %s: every row computed in every sweep; the seeds skip nothing", w, run.name)
			}
		}
	}
}

func TestSweepComputesOnlyTheLightCone(t *testing.T) {
	// From the paper's initial condition heat moves one row a sweep: before
	// sweep s (from 0) global rows 1..s hold heat, so the sweep computes
	// rows 1..s+1, and rank k the ones of those it owns. At N=64 nothing
	// underflows back to +0 in 40 sweeps, so the front is exact.
	pr := Params{N: 64, Iters: 40, Procs: 8, Threads: 2}
	rowsPer := pr.N / pr.Procs
	counts := make([][]int64, pr.Procs)
	parts := make([]float64, pr.Procs)
	w := cluster.New(perfmodel.Default(), pr.Procs).DCFAWorld(pr.Procs, true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		l := newSlab(r.Domain(), rowsPer, pr.Width(), r.ID() == 0)
		team := omp.NewTeam(w.Plat, pr.Threads, r.Loc())
		counts[r.ID()] = make([]int64, pr.Iters)
		for s := 0; s < pr.Iters; s++ {
			if err := exchange(p, r, l, pr.Procs); err != nil {
				return err
			}
			before := l.computed
			l.sweep(p, team, false)
			counts[r.ID()][s] = l.computed - before
			if msg := flagsLie(l); msg != "" {
				return fmt.Errorf("rank %d, sweep %d: %s", r.ID(), s, msg)
			}
		}
		parts[r.ID()] = l.partialSum()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total, cone := int64(0), int64(0)
	for s := 0; s < pr.Iters; s++ {
		cone += int64(s + 1)
		for k := range counts {
			want := int64(min(max(s+1-k*rowsPer, 0), rowsPer))
			if got := counts[k][s]; got != want {
				t.Errorf("sweep %d, rank %d: computed %d rows, light cone %d", s, k, got, want)
			}
			total += counts[k][s]
		}
	}
	if total != cone {
		t.Errorf("computed %d rows in all, light cone Σ(s+1) = %d", total, cone)
	}
	sum := 0.0
	for _, v := range parts {
		sum += v
	}
	if want := ReferenceChecksum(Reference(pr), pr); sum != want {
		t.Errorf("checksum %v, reference %v", sum, want)
	}
}

func TestWarmExchangeSwapsFlags(t *testing.T) {
	// After three sweeps from the initial condition the buffers differ:
	// rank 0's cur holds heat in row 3 and its next does not yet. A
	// warm-up exchange swaps the buffers, and each must take its flags
	// along.
	pr := Params{N: 16, Iters: 3, Procs: 2, Threads: 1}
	w := cluster.New(perfmodel.Default(), pr.Procs).DCFAWorld(pr.Procs, true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		l := newSlab(r.Domain(), pr.N/pr.Procs, pr.Width(), r.ID() == 0)
		team := omp.NewTeam(w.Plat, pr.Threads, r.Loc())
		for s := 0; s < pr.Iters; s++ {
			if err := exchange(p, r, l, pr.Procs); err != nil {
				return err
			}
			l.sweep(p, team, false)
		}
		if err := warmExchange(p, r, l, pr.Procs); err != nil {
			return err
		}
		if msg := flagsLie(l); msg != "" {
			return fmt.Errorf("rank %d after the warm-up exchange: %s", r.ID(), msg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSlabSweep runs the sweep every mode runs, flags included, on
// one thread. dense and band are BenchmarkJacobiSweep's two slabs (one
// stencil_8x56 rank's 160 rows), with no row clear. dense's ns/point
// against JacobiSweep/normal's is what the flags cost when they skip
// nothing: every row leaves the careful loop after the first sweep.
// band's against JacobiSweep/band's is what the careful loop saves: every
// sum is tiny, so every row stays careful.
// paper-720 is the serial 1282² grid from the paper's initial condition:
// op i is sweep i mod 720, restarting from the initial condition untimed,
// so at -benchtime 720x ns/op is the mean sweep of stencil_8x56's timed
// run length.
func BenchmarkSlabSweep(b *testing.B) {
	team := omp.NewTeam(perfmodel.Default(), 1, machine.MicMem)
	pr := PaperParams(8, 56)
	for _, bc := range []struct {
		name string
		seed func(g []float64)
	}{
		{"dense", func(g []float64) {
			for i := range g {
				g[i] = 1
			}
		}},
		{"band", seedBand},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rows := pr.N / pr.Procs
			l := newSlab(machine.NewNode(0).Mic, rows, pr.Width(), true)
			bc.seed(f64view(l.cur.Data))
			copy(f64view(l.next.Data), f64view(l.cur.Data))
			l.curClear, l.nextClear = markClear(f64view(l.cur.Data), l.w), markClear(f64view(l.next.Data), l.w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.compute(team)
				l.swap()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*pr.N), "ns/point")
		})
	}
	b.Run("paper-720", func(b *testing.B) {
		const trajectory = 720
		l := newSlab(machine.NewNode(0).Mic, pr.N, pr.Width(), true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%trajectory == 0 && i > 0 {
				b.StopTimer()
				initSlab(f64view(l.cur.Data), true, l.w)
				copy(f64view(l.next.Data), f64view(l.cur.Data))
				l.curClear, l.nextClear = markClear(f64view(l.cur.Data), l.w), markClear(f64view(l.next.Data), l.w)
				b.StartTimer()
			}
			l.compute(team)
			l.swap()
		}
		b.ReportMetric(float64(l.computed)/float64(b.N), "rows/sweep")
	})
}
