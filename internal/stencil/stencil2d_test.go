package stencil

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/perfmodel"
)

// run2D runs pr in mode m on a fresh cluster of the size the mode fills
// with pr.Procs() ranks.
func run2D(plat *perfmodel.Platform, m cluster.Mode, pr Params2D) (Result, error) {
	n := max(pr.Procs(), 1)
	return Run2D(cluster.New(plat, m.Nodes(n)).World(m, n), pr)
}

func TestRun2DMatchesReference(t *testing.T) {
	// 8 sweeps keep the heat front above the first row boundary; 400
	// carry it across every row boundary, and the column halos carry
	// heat from the first sweep on. Every mode builds a 2-D world: the
	// grid lives where the mode's ranks run.
	for m := cluster.ModeDCFA; m <= cluster.ModeSymmetric; m++ {
		t.Run(m.String(), func(t *testing.T) {
			for _, grid := range []struct{ px, py, iters int }{
				{1, 1, 8}, {2, 1, 8}, {1, 2, 8}, {2, 2, 8}, {4, 2, 8},
				{2, 2, 400}, {4, 2, 400}, {2, 4, 400},
			} {
				pr := Params2D{N: 64, Iters: grid.iters, Px: grid.px, Py: grid.py, Threads: 2}
				res, err := run2D(perfmodel.Default(), m, pr)
				if err != nil {
					t.Fatalf("%dx%d, %d iters: %v", grid.px, grid.py, pr.Iters, err)
				}
				ref := Reference(Params{N: pr.N, Iters: pr.Iters, Procs: 1, Threads: 1})
				want := ReferenceChecksum2D(ref, pr)
				if res.Checksum != want {
					t.Fatalf("%dx%d, %d iters: checksum %v, reference %v", grid.px, grid.py, pr.Iters, res.Checksum, want)
				}
			}
		})
	}
}

func TestRun2DRejectsBadGrid(t *testing.T) {
	if _, err := run2D(perfmodel.Default(), cluster.ModeDCFA, Params2D{N: 10, Iters: 1, Px: 3, Py: 1, Threads: 1}); err == nil {
		t.Fatal("3 does not divide 10")
	}
	if _, err := run2D(perfmodel.Default(), cluster.ModeDCFA, Params2D{N: 8, Iters: 1, Px: 0, Py: 1, Threads: 1}); err == nil {
		t.Fatal("zero Px accepted")
	}
}

func Test2DChecksumEquals1DForRowGrids(t *testing.T) {
	// A Px=1 2D decomposition is exactly the 1D decomposition. 5 sweeps
	// stay inside the first rank's 8 rows; 100 cross every boundary.
	for _, iters := range []int{5, 100} {
		pr2 := Params2D{N: 32, Iters: iters, Px: 1, Py: 4, Threads: 1}
		pr1 := Params{N: 32, Iters: iters, Procs: 4, Threads: 1}
		r2, err := run2D(perfmodel.Default(), cluster.ModeDCFA, pr2)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := RunDCFA(perfmodel.Default(), pr1, true)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Checksum != r2.Checksum {
			t.Fatalf("%d iters: 1D %v vs 2D %v", iters, r1.Checksum, r2.Checksum)
		}
	}
}

func Test2DHaloVolumeAdvantage(t *testing.T) {
	// At 8 processes on the paper's grid, the 2×4 decomposition moves
	// less halo data per rank than 1×8, though with more messages and
	// column-pack overhead. Verify both run and report sane times.
	plat := perfmodel.Default()
	pr1 := Params{N: 1280, Iters: 5, Procs: 8, Threads: 16, SkipCompute: true}
	r1, err := RunDCFA(plat, pr1, true)
	if err != nil {
		t.Fatal(err)
	}
	pr2 := Params2D{N: 1280, Iters: 5, Px: 2, Py: 4, Threads: 16, SkipCompute: true}
	r2, err := run2D(plat, cluster.ModeDCFA, pr2)
	if err != nil {
		t.Fatal(err)
	}
	// Compute costs are identical; the decompositions should land
	// within 25% of each other.
	ratio := float64(r2.PerIter) / float64(r1.PerIter)
	if ratio < 0.75 || ratio > 1.25 {
		t.Fatalf("2D/1D per-iteration ratio %.2f (1D %v, 2D %v)", ratio, r1.PerIter, r2.PerIter)
	}
}
