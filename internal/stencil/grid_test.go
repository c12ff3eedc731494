package stencil

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/perfmodel"
)

// runGrid runs pr through RunWorld in mode m on a fresh cluster of the
// size the mode fills with pr.Procs ranks. Unlike Run it takes every
// mode, host-offload included: the grid lives where the ranks run.
func runGrid(plat *perfmodel.Platform, m cluster.Mode, pr Params) (Result, error) {
	n := max(pr.Procs, 1)
	return RunWorld(cluster.New(plat, m.Nodes(n)).World(m, n), pr)
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
				pr := Params{N: 64, Iters: grid.iters, Procs: grid.px * grid.py, Cols: grid.px, Threads: 2}
				res, err := runGrid(perfmodel.Default(), m, pr)
				if err != nil {
					t.Fatalf("%dx%d, %d iters: %v", grid.px, grid.py, pr.Iters, err)
				}
				ref := Reference(Params{N: pr.N, Iters: pr.Iters, Procs: 1, Threads: 1})
				want := ReferenceChecksum(ref, pr)
				if res.Checksum != want {
					t.Fatalf("%dx%d, %d iters: checksum %v, reference %v", grid.px, grid.py, pr.Iters, res.Checksum, want)
				}
			}
		})
	}
}

func TestRun2DRejectsBadGrid(t *testing.T) {
	if _, err := runGrid(perfmodel.Default(), cluster.ModeDCFA, Params{N: 10, Iters: 1, Procs: 3, Cols: 3, Threads: 1}); err == nil {
		t.Fatal("3 does not divide 10")
	}
	if _, err := runGrid(perfmodel.Default(), cluster.ModeDCFA, Params{N: 8, Iters: 1, Procs: 2, Cols: -1, Threads: 1}); err == nil {
		t.Fatal("negative Cols accepted")
	}
	if err := (Params{N: 12, Iters: 1, Procs: 4, Cols: 3, Threads: 1}).Validate(); err == nil {
		t.Fatal("3 columns do not divide 4 procs")
	}
	plat := perfmodel.Default()
	pr := Params{N: 64, Iters: 1, Procs: 4, Cols: 2, Threads: 1}
	if _, err := Run(cluster.New(plat, 4), cluster.ModeHostOffload, pr); err == nil {
		t.Fatal("host-offload ran a 2-column grid: its copy-in/copy-out moves rows only")
	}
}

// TestRowScheduleIsPinned pins the paper's row decomposition and the
// serial baseline bit for bit: the engine's fingerprint and event count
// and the Result of a DCFA row run, and the Result of the serial program.
// The 2-D grid shares their exchange and sweep; these literals keep that
// sharing from moving the paper's numbers.
func TestRowScheduleIsPinned(t *testing.T) {
	const sum = 0x40757df26e000000 // 343.8716869354248
	plat := perfmodel.Default()
	pr := Params{N: 256, Iters: 10, Procs: 8, Threads: 56}
	c := cluster.New(plat, pr.Procs)
	res, err := RunWorld(c.DCFAWorld(pr.Procs, true), pr)
	if err != nil {
		t.Fatal(err)
	}
	if fp, ev := c.Eng.Fingerprint(), c.Eng.EventsRun(); fp != 0x5bf48bbad40984cd || ev != 2859 {
		t.Errorf("row run: fingerprint %#x, %d events; pinned 0x5bf48bbad40984cd, 2859", fp, ev)
	}
	if res.Total != 637838 || res.PerIter != 63783 || math.Float64bits(res.Checksum) != sum {
		t.Errorf("row run: %+v (checksum bits %#x); pinned total 637838, per-iteration 63783, bits %#x",
			res, math.Float64bits(res.Checksum), uint64(sum))
	}
	ser, err := RunSerial(plat, pr)
	if err != nil {
		t.Fatal(err)
	}
	if ser.Total != 21845330 || ser.PerIter != 2184533 || math.Float64bits(ser.Checksum) != sum {
		t.Errorf("serial: %+v (checksum bits %#x); pinned total 21845330, per-iteration 2184533, bits %#x",
			ser, math.Float64bits(ser.Checksum), uint64(sum))
	}
	pr = Params{N: 1280, Iters: 20, SkipCompute: true}
	if ser, err = RunSerial(plat, pr); err != nil {
		t.Fatal(err)
	}
	if ser != (Result{Total: 1092266660, PerIter: 54613333}) {
		t.Errorf("serial at the paper's size: %+v; pinned total 1092266660, per-iteration 54613333", ser)
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
	pr2 := Params{N: 1280, Iters: 5, Procs: 8, Cols: 2, Threads: 16, SkipCompute: true}
	r2, err := runGrid(plat, cluster.ModeDCFA, pr2)
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
