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
	for _, procs := range []int{1, 2, 4} {
		pr := params(procs)
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

func TestCombineBinomialAssociation(t *testing.T) {
	// P=4: ((s0+s1)+(s2+s3)).
	got := CombineBinomial([]float64{1, 2, 4, 8})
	if got != (1+2)+(4+8) {
		t.Fatalf("P=4 combine %v", got)
	}
	// P=3: (s0+s1)+s2.
	if got := CombineBinomial([]float64{1, 2, 4}); got != (1+2)+4 {
		t.Fatalf("P=3 combine %v", got)
	}
	if CombineBinomial(nil) != 0 {
		t.Fatal("empty combine")
	}
	if CombineBinomial([]float64{7}) != 7 {
		t.Fatal("single combine")
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
