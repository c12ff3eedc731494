// Package cg implements a distributed Conjugate Gradient solver for
// the 2D Poisson problem (the same five-point operator as the paper's
// stencil, used matrix-free), as a second full application workload on
// the MPI library: every iteration performs one halo exchange (SpMV)
// and two Allreduce dot products, the canonical communication pattern
// of iterative solvers.
//
// All arithmetic is real and bit-reproducible: the distributed dot
// products combine rank partials in the library's binomial-tree order,
// and the serial reference mimics that association exactly, so a P-rank
// run is verified float-for-float against the reference.
package cg

import (
	"errors"
	"fmt"
	"math"
	"unsafe"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/omp"
	"repro/internal/sim"
)

// Params configures a solve of A·x = b on an N×N interior grid, where A
// is the 2D discrete Laplacian (Dirichlet boundaries) and b ≡ 1.
type Params struct {
	N       int
	MaxIter int
	Tol     float64 // on ‖r‖₂
	Procs   int
	Threads int
}

// Validate checks the decomposition.
func (pr Params) Validate() error {
	if pr.N <= 0 || pr.MaxIter <= 0 || pr.Procs <= 0 || pr.Threads <= 0 || pr.Tol <= 0 {
		return fmt.Errorf("cg: non-positive parameter: %+v", pr)
	}
	if pr.N%pr.Procs != 0 {
		return fmt.Errorf("cg: procs %d does not divide N %d", pr.Procs, pr.N)
	}
	return nil
}

// Result reports one solve.
type Result struct {
	Iters    int
	Residual float64 // final ‖r‖₂
	Total    sim.Duration
	PerIter  sim.Duration
	// SolutionSum is the rank-blocked sum of x for verification.
	SolutionSum float64
}

// field is one distributed vector: owned interior rows plus ghost rows
// (only p needs ghosts; the others are allocated flat for uniformity).
type field struct {
	rows, w int
	buf     *machine.Buffer
}

func newField(dom *machine.Domain, rows, w int) *field {
	return &field{rows: rows, w: w, buf: dom.Alloc((rows + 2) * w * 8)}
}

func (f *field) data() []float64 { return f64view(f.buf.Data) }

// f64view reinterprets device memory as float64s (cf. stencil).
func f64view(b []byte) []float64 {
	if len(b) < 8 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// applyA computes q = A·p over owned rows (p's ghosts must be current):
// (A p)[i] = 4p[i] − p[up] − p[down] − p[left] − p[right].
func applyA(q, p []float64, rows, w, lo, hi int) {
	for r := lo; r < hi; r++ {
		row := (r + 1) * w
		for c := 1; c < w-1; c++ {
			i := row + c
			q[i] = 4*p[i] - p[i-w] - p[i+w] - p[i-1] - p[i+1]
		}
	}
}

// localDot sums a[i]*b[i] over the owned interior in fixed order.
func localDot(a, b []float64, rows, w int) float64 {
	s := 0.0
	for r := 1; r <= rows; r++ {
		for c := 1; c < w-1; c++ {
			i := r*w + c
			s += a[i] * b[i]
		}
	}
	return s
}

// CombineBinomial reproduces the library's Reduce association over the
// rank partials: rank v accumulates child v|m (for each mask m above
// v's low bits) after that child has fully combined its own subtree.
func CombineBinomial(parts []float64) float64 {
	if len(parts) == 0 {
		return 0
	}
	var value func(v, n int) float64
	value = func(v, n int) float64 {
		acc := parts[v]
		for m := 1; m < n; m *= 2 {
			if v&m != 0 {
				break
			}
			if v|m < n {
				acc += value(v|m, n)
			}
		}
		return acc
	}
	return value(0, len(parts))
}

const (
	tagHaloUp   = 21
	tagHaloDown = 22
)

// exchangeGhosts refreshes p's ghost rows from the neighbors.
func exchangeGhosts(pp *sim.Proc, r *core.Rank, f *field, procs int) error {
	row := func(i int) core.Slice {
		return core.Slice{Buf: f.buf, Off: i * f.w * 8, N: f.w * 8}
	}
	var reqs []*core.Request
	add := func(q *core.Request, err error) error {
		if err != nil {
			// Drain what was already posted before bailing out.
			return errors.Join(err, r.WaitAll(pp, reqs...))
		}
		reqs = append(reqs, q)
		return nil
	}
	if up := r.ID() - 1; up >= 0 {
		if err := add(r.Isend(pp, up, tagHaloUp, row(1))); err != nil {
			return err
		}
		if err := add(r.Irecv(pp, up, tagHaloDown, row(0))); err != nil {
			return err
		}
	}
	if down := r.ID() + 1; down < procs {
		if err := add(r.Isend(pp, down, tagHaloDown, row(f.rows))); err != nil {
			return err
		}
		if err := add(r.Irecv(pp, down, tagHaloUp, row(f.rows+1))); err != nil {
			return err
		}
	}
	return r.WaitAll(pp, reqs...)
}

// dotAll computes the global dot product via Allreduce, preserving the
// binomial association.
func dotAll(p *sim.Proc, r *core.Rank, local float64) (float64, error) {
	buf := r.Mem(8)
	defer r.Domain().Free(buf)
	core.PutF64s(buf.Data, []float64{local})
	if err := r.Allreduce(p, core.Whole(buf), core.OpSumF64); err != nil {
		return 0, err
	}
	return core.GetF64s(buf.Data, 1)[0], nil
}

// RunWorld solves the system on an already-built world (any execution
// mode).
func RunWorld(w *core.World, pr Params) (Result, error) {
	if err := pr.Validate(); err != nil {
		return Result{}, err
	}
	plat := w.Plat
	var res Result
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		rows := pr.N / pr.Procs
		width := pr.N + 2
		team := omp.NewTeam(plat, pr.Threads, r.Loc())
		x := newField(r.Domain(), rows, width)
		rr := newField(r.Domain(), rows, width)
		pv := newField(r.Domain(), rows, width)
		q := newField(r.Domain(), rows, width)
		xd, rd, pd, qd := x.data(), rr.data(), pv.data(), q.data()
		// x = 0; r = b = 1 on the interior; p = r.
		for row := 1; row <= rows; row++ {
			for col := 1; col < width-1; col++ {
				i := row*width + col
				rd[i] = 1
				pd[i] = 1
			}
		}
		charge := func(mult int) {
			team.ParallelFor(p, mult*rows*(width-2), nil)
		}
		rs := localDot(rd, rd, rows, width)
		charge(1)
		rsGlobal, err := dotAll(p, r, rs)
		if err != nil {
			return err
		}
		if err := r.Barrier(p); err != nil {
			return err
		}
		start := p.Now()
		iters := 0
		tol2 := pr.Tol * pr.Tol
		for iters < pr.MaxIter && rsGlobal > tol2 {
			if pr.Procs > 1 {
				if err := exchangeGhosts(p, r, pv, pr.Procs); err != nil {
					return err
				}
			}
			team.Execute(rows, func(lo, hi int) { applyA(qd, pd, rows, width, lo, hi) })
			charge(2) // SpMV ≈ two vector ops of work
			pq, err := dotAll(p, r, localDot(pd, qd, rows, width))
			if err != nil {
				return err
			}
			charge(1)
			alpha := rsGlobal / pq
			for row := 1; row <= rows; row++ {
				for col := 1; col < width-1; col++ {
					i := row*width + col
					xd[i] += alpha * pd[i]
					rd[i] -= alpha * qd[i]
				}
			}
			charge(2)
			rsNew, err := dotAll(p, r, localDot(rd, rd, rows, width))
			if err != nil {
				return err
			}
			charge(1)
			beta := rsNew / rsGlobal
			for row := 1; row <= rows; row++ {
				for col := 1; col < width-1; col++ {
					i := row*width + col
					pd[i] = rd[i] + beta*pd[i]
				}
			}
			charge(1)
			rsGlobal = rsNew
			iters++
		}
		if err := r.Barrier(p); err != nil {
			return err
		}
		total := p.Now() - start
		sum, err := dotAll(p, r, localSum(xd, rows, width))
		if err != nil {
			return err
		}
		if r.ID() == 0 {
			res = Result{
				Iters:       iters,
				Residual:    math.Sqrt(rsGlobal),
				Total:       total,
				PerIter:     total / sim.Duration(max(iters, 1)),
				SolutionSum: sum,
			}
		}
		return nil
	})
	return res, err
}

func localSum(a []float64, rows, w int) float64 {
	s := 0.0
	for r := 1; r <= rows; r++ {
		for c := 1; c < w-1; c++ {
			s += a[r*w+c]
		}
	}
	return s
}

// Reference runs the identical CG serially, reproducing the P-rank
// run's floating-point association (rank-blocked partial dots combined
// in binomial order), so results match the distributed run exactly.
func Reference(pr Params) Result {
	width := pr.N + 2
	size := (pr.N + 2) * width
	x := make([]float64, size)
	rvec := make([]float64, size)
	pvec := make([]float64, size)
	q := make([]float64, size)
	for row := 1; row <= pr.N; row++ {
		for col := 1; col < width-1; col++ {
			i := row*width + col
			rvec[i] = 1
			pvec[i] = 1
		}
	}
	rows := pr.N / pr.Procs
	blockDot := func(a, b []float64) float64 {
		parts := make([]float64, pr.Procs)
		for k := 0; k < pr.Procs; k++ {
			s := 0.0
			for row := 1 + k*rows; row <= (k+1)*rows; row++ {
				for col := 1; col < width-1; col++ {
					i := row*width + col
					s += a[i] * b[i]
				}
			}
			parts[k] = s
		}
		return CombineBinomial(parts)
	}
	rs := blockDot(rvec, rvec)
	iters := 0
	tol2 := pr.Tol * pr.Tol
	for iters < pr.MaxIter && rs > tol2 {
		applyA(q, pvec, pr.N, width, 0, pr.N)
		alpha := rs / blockDot(pvec, q)
		for row := 1; row <= pr.N; row++ {
			for col := 1; col < width-1; col++ {
				i := row*width + col
				x[i] += alpha * pvec[i]
				rvec[i] -= alpha * q[i]
			}
		}
		rsNew := blockDot(rvec, rvec)
		beta := rsNew / rs
		for row := 1; row <= pr.N; row++ {
			for col := 1; col < width-1; col++ {
				i := row*width + col
				pvec[i] = rvec[i] + beta*pvec[i]
			}
		}
		rs = rsNew
		iters++
	}
	sumParts := make([]float64, pr.Procs)
	for k := 0; k < pr.Procs; k++ {
		s := 0.0
		for row := 1 + k*rows; row <= (k+1)*rows; row++ {
			for col := 1; col < width-1; col++ {
				s += x[row*width+col]
			}
		}
		sumParts[k] = s
	}
	return Result{Iters: iters, Residual: math.Sqrt(rs), SolutionSum: CombineBinomial(sumParts)}
}
