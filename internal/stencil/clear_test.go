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
// cell the sweep writes is not +0, or returns "". Ghost rows and each
// row's first and last cell are left out: the exchange writes them
// between sweeps, and refreshClear catches up with it before the flags
// are read.
func flagsLie(l *slab) string {
	for r := 1; r <= l.rows; r++ {
		if l.curClear[r] && !zeroRow(l.interior(l.cur, r)) {
			return fmt.Sprintf("row %d is flagged clear but is not", r)
		}
	}
	return ""
}

// computedRows is the number of owned rows l's last sweep computed: the
// rows it left flagged not clear.
func computedRows(l *slab) int {
	n := 0
	for _, c := range l.curClear[1 : l.rows+1] {
		if !c {
			n++
		}
	}
	return n
}

// markClear returns one flag per row of the w-wide grid g, true when
// every cell of the row is +0: the flags a slab holding g would start
// with.
func markClear(g []float64, w int) []bool {
	flags := make([]bool, len(g)/w)
	for r := range flags {
		flags[r] = zeroRow(g[r*w : (r+1)*w])
	}
	return flags
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
	// The in-place sweep against the dense kernel, which writes one grid
	// from another, cell for cell. A row once computed is computed in
	// every later sweep, so the grid is seeded afresh every 20 sweeps:
	// with sparse rows (seedSparse: +0, −0.0, normal and subnormal rows),
	// at sweep 40 with every cell subnormal (seedBand), and at sweep 60
	// with every cell +0, as ahead of the heat front: that sweep must
	// compute nothing, and the later ones only where the ghost cells that
	// rewriteGhosts writes bring heat. The second buffer starts different
	// from the grid and is reseeded with special values (seedSpecial: NaN,
	// ±Inf, −0.0, subnormals) each time, so a sweep that read a stale
	// scratch row would show. Run with -cpu 1,2,4 for omp.Execute's chunks
	// on 1, 2 and 4 real goroutines.
	const sweeps, reseed = 80, 20
	plat := perfmodel.Default()
	one := omp.NewTeam(plat, 1, machine.MicMem)
	four := omp.NewTeam(plat, 4, machine.MicMem)
	type run struct {
		name    string
		compute func(l *slab)
	}
	runsFor := func(rows int) []run {
		runs := []run{
			{"execute-1-thread", func(l *slab) { l.compute(one) }},
			// Several chunks on real goroutines when GOMAXPROCS ≥ 2.
			{"execute-4-threads", func(l *slab) { l.compute(four) }},
		}
		// Every chunk length omp.Execute can split the rows into, one
		// chunk after another, whatever GOMAXPROCS is.
		for chunk := 1; chunk <= rows; chunk++ {
			runs = append(runs, run{fmt.Sprintf("chunks-of-%d", chunk), func(l *slab) {
				refreshClear(l.curClear, f64view(l.cur.Data), l.w)
				for lo := 0; lo < rows; lo += chunk {
					l.body(lo, min(lo+chunk, rows))
				}
				l.finish(chunk)
			}})
		}
		return runs
	}
	// Slabs of 1 to 9 owned rows at the narrowest width, and 12 rows at
	// widths from 3 to 1282: a row run's slabs are N+2 wide and a grid's
	// blocks N/Cols+2.
	type shape struct{ rows, w int }
	var shapes []shape
	for rows := 1; rows <= 9; rows++ {
		shapes = append(shapes, shape{rows, 3})
	}
	for _, w := range []int{3, 4, 5, 18, 66, 1282} {
		shapes = append(shapes, shape{12, w})
	}
	for _, sh := range shapes {
		rows, w := sh.rows, sh.w
		for _, run := range runsFor(rows) {
			rng := rand.New(rand.NewSource(int64(100*w + rows)))
			l := newSlab(machine.NewNode(0).Mic, rows, w, false)
			var dc, dn []float64 // the dense kernel's two grids
			computed := 0
			for s := 0; s < sweeps; s++ {
				if s%reseed == 0 {
					g := f64view(l.cur.Data)
					switch s / reseed {
					case 2:
						seedBand(g)
					case 3:
						clear(g)
					default:
						seedSparse(rng, g, w)
					}
					seedSpecial(rng, f64view(l.edge.Data))
					l.curClear = markClear(g, w)
					dc, dn = append(dc[:0], g...), append(dn[:0], g...)
				}
				cold := s == 3*reseed
				if !cold {
					rewriteGhosts(rng, f64view(l.cur.Data), dc, w)
				}
				run.compute(l)
				n := computedRows(l)
				computed += n
				if cold && n != 0 {
					t.Fatalf("%d rows, w=%d, %s: a sweep of an all +0 slab computed %d rows", rows, w, run.name, n)
				}
				// The sweep writes owned interior cells only, so the dense
				// grid carries every other cell over.
				copy(dn, dc)
				denseRows(dn, dc, w, 0, rows)
				dc, dn = dn, dc
				got := f64view(l.cur.Data)
				for i := range dc {
					if math.Float64bits(got[i]) != math.Float64bits(dc[i]) {
						t.Fatalf("%d rows, w=%d, %s, after sweep %d: cell (%d,%d) = %v (%#x), dense kernel %v (%#x)",
							rows, w, run.name, s, i/w, i%w, got[i], math.Float64bits(got[i]),
							dc[i], math.Float64bits(dc[i]))
					}
				}
				if msg := flagsLie(l); msg != "" {
					t.Fatalf("%d rows, w=%d, %s, after sweep %d: %s", rows, w, run.name, s, msg)
				}
			}
			if computed == rows*sweeps {
				t.Errorf("%d rows, w=%d, %s: every row computed in every sweep; the seeds skip nothing", rows, w, run.name)
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
	counts := make([][]int, pr.Procs)
	parts := make([]float64, pr.Procs)
	w := cluster.New(perfmodel.Default(), pr.Procs).DCFAWorld(pr.Procs, true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		l := newSlab(r.Domain(), rowsPer, pr.Width(), r.ID() == 0)
		team := omp.NewTeam(w.Plat, pr.Threads, r.Loc())
		counts[r.ID()] = make([]int, pr.Iters)
		for s := 0; s < pr.Iters; s++ {
			if err := exchange(p, r, l, pr); err != nil {
				return err
			}
			l.sweep(p, team, false)
			counts[r.ID()][s] = computedRows(l)
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
	total, cone := 0, 0
	for s := 0; s < pr.Iters; s++ {
		cone += s + 1
		for k := range counts {
			want := min(max(s+1-k*rowsPer, 0), rowsPer)
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

func TestWarmExchangeKeepsFlags(t *testing.T) {
	// After three sweeps from the initial condition rank 0's grid holds
	// heat in row 3, and the exchange's parity is odd. A warm-up exchange
	// between two sweeps flips the parity and rewrites the ghost rows
	// through the second buffer; the flags must still describe the grid,
	// and the run must still end on Reference's grid.
	pr := Params{N: 16, Iters: 6, Procs: 2, Threads: 1}
	parts := make([]float64, pr.Procs)
	w := cluster.New(perfmodel.Default(), pr.Procs).DCFAWorld(pr.Procs, true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		l := newSlab(r.Domain(), pr.N/pr.Procs, pr.Width(), r.ID() == 0)
		team := omp.NewTeam(w.Plat, pr.Threads, r.Loc())
		for s := 0; s < pr.Iters; s++ {
			if s == 3 {
				odd := l.odd
				if err := warmExchange(p, r, l, pr); err != nil {
					return err
				}
				if l.odd == odd {
					return fmt.Errorf("rank %d: the warm-up exchange left the parity %v", r.ID(), odd)
				}
				if msg := flagsLie(l); msg != "" {
					return fmt.Errorf("rank %d after the warm-up exchange: %s", r.ID(), msg)
				}
			}
			if err := exchange(p, r, l, pr); err != nil {
				return err
			}
			l.sweep(p, team, false)
		}
		parts[r.ID()] = l.partialSum()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum, want := parts[0]+parts[1], ReferenceChecksum(Reference(pr), pr); sum != want {
		t.Errorf("checksum %v, reference %v", sum, want)
	}
}

// BenchmarkSlabSweep runs the sweep every mode runs, in place, flags
// and scratch rows included, on one thread. dense and band are
// BenchmarkJacobiSweep's two slabs (one stencil_8x56 rank's 160 rows),
// with no row clear. dense's ns/point against JacobiSweep/normal's is
// what the flags and the scratch rows cost when nothing is skipped:
// every row leaves the careful loop after the first sweep.
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
			l.curClear = markClear(f64view(l.cur.Data), l.w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.compute(team)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*pr.N), "ns/point")
		})
	}
	b.Run("paper-720", func(b *testing.B) {
		const trajectory = 720
		l := newSlab(machine.NewNode(0).Mic, pr.N, pr.Width(), true)
		computed := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%trajectory == 0 && i > 0 {
				b.StopTimer()
				g := f64view(l.cur.Data)
				clear(g)
				heatTop(g, l.w)
				l.curClear = markClear(g, l.w)
				b.StartTimer()
			}
			l.compute(team)
			computed += computedRows(l)
		}
		b.ReportMetric(float64(computed)/float64(b.N), "rows/sweep")
	})
}
