package cg

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/perfmodel"
)

// run solves pr under DCFA-MPI on a fresh cluster, one node per process.
func run(plat *perfmodel.Platform, pr Params) (Result, error) {
	return RunWorld(cluster.New(plat, pr.Procs).World(cluster.ModeDCFA, pr.Procs), pr)
}

func params(procs int) Params {
	return Params{N: 32, MaxIter: 200, Tol: 1e-8, Procs: procs, Threads: 2}
}

func TestReferenceConverges(t *testing.T) {
	res := Reference(params(1))
	if res.Residual > 1e-8 {
		t.Fatalf("reference did not converge: residual %g after %d iters", res.Residual, res.Iters)
	}
	if res.Iters == 0 || res.Iters >= 200 {
		t.Fatalf("suspicious iteration count %d", res.Iters)
	}
	// The Poisson solution for b=1 is positive everywhere.
	if res.SolutionSum <= 0 {
		t.Fatalf("solution sum %g", res.SolutionSum)
	}
}

func TestDistributedMatchesReferenceExactly(t *testing.T) {
	// At 5 and 9 processes the recursive-doubling fold associates the
	// partials differently from a binomial tree; N=45 divides among both.
	for _, pr := range []Params{params(1), params(2), params(4), {N: 45, MaxIter: 200, Tol: 1e-8, Procs: 5, Threads: 2}, {N: 45, MaxIter: 200, Tol: 1e-8, Procs: 9, Threads: 2}} {
		procs := pr.Procs
		got, err := run(perfmodel.Default(), pr)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		want := Reference(pr)
		if got.Iters != want.Iters {
			t.Fatalf("procs=%d: %d iterations, reference %d", procs, got.Iters, want.Iters)
		}
		if got.Residual != want.Residual {
			t.Fatalf("procs=%d: residual %g, reference %g", procs, got.Residual, want.Residual)
		}
		if got.SolutionSum != want.SolutionSum {
			t.Fatalf("procs=%d: solution sum %g, reference %g", procs, got.SolutionSum, want.SolutionSum)
		}
	}
}

func TestResidualDecreasesWithMoreIterations(t *testing.T) {
	loose := Reference(Params{N: 32, MaxIter: 5, Tol: 1e-30, Procs: 1, Threads: 1})
	tight := Reference(Params{N: 32, MaxIter: 40, Tol: 1e-30, Procs: 1, Threads: 1})
	if tight.Residual >= loose.Residual {
		t.Fatalf("residual did not decrease: %g after 5 iters, %g after 40", loose.Residual, tight.Residual)
	}
}

func TestCombineRecursiveDoublingAssociation(t *testing.T) {
	// 1 + 2⁵³ rounds back to 2⁵³, so the sum depends on whether 1 meets
	// 2⁵³ before -2⁵³ does: at 5 and 9 partials recursive doubling gives
	// 1 where a binomial tree, ((s0+s1)+(s2+s3))+s4..., gives 0.
	s := []float64{0, 0, 1, 0x1p53, -0x1p53, 0, 0, 2, 0x1p-60}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{1, s[0]},
		{3, (s[0] + s[1]) + s[2]},
		{4, (s[0] + s[1]) + (s[2] + s[3])},
		{5, ((s[0] + s[1]) + s[2]) + (s[3] + s[4])},
		{7, ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + s[6])},
		{9, (((s[0] + s[1]) + s[2]) + (s[3] + s[4])) + ((s[5] + s[6]) + (s[7] + s[8]))},
	} {
		if got := CombineRecursiveDoubling(s[:c.n]); got != c.want {
			t.Errorf("%d partials combine to %v, want %v", c.n, got, c.want)
		}
	}
	if got := CombineRecursiveDoubling(s[:5]); got != 1 {
		t.Errorf("5 partials combine to %v, want 1", got)
	}
}

func TestValidate(t *testing.T) {
	if err := (Params{N: 10, MaxIter: 1, Tol: 1, Procs: 3, Threads: 1}).Validate(); err == nil {
		t.Fatal("bad decomposition accepted")
	}
	if err := (Params{}).Validate(); err == nil {
		t.Fatal("zero params accepted")
	}
}

func TestMoreProcsReduceSolveTime(t *testing.T) {
	plat := perfmodel.Default()
	// A larger grid so compute dominates and scaling shows.
	pr := Params{N: 256, MaxIter: 30, Tol: 1e-30, Procs: 1, Threads: 8}
	r1, err := run(plat, pr)
	if err != nil {
		t.Fatal(err)
	}
	pr.Procs = 4
	r4, err := run(plat, pr)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Total >= r1.Total {
		t.Fatalf("4 procs (%v) not faster than 1 (%v)", r4.Total, r1.Total)
	}
}
