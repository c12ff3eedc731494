package stencil

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/omp"
	"repro/internal/sim"
)

// Params2D configures a two-dimensional domain decomposition: a Px×Py
// process grid over the same (N+2)² problem. Row halos stay contiguous;
// column halos are strided and exercise the vector datatype path. The
// paper uses the 1D decomposition; this is the natural extension for
// larger process counts, included as an ablation.
type Params2D struct {
	N       int
	Iters   int
	Px, Py  int
	Threads int
	// SkipCompute mirrors Params.SkipCompute.
	SkipCompute bool
}

// Procs is the total process count.
func (pr Params2D) Procs() int { return pr.Px * pr.Py }

// Validate checks the decomposition.
func (pr Params2D) Validate() error {
	if pr.N <= 0 || pr.Iters <= 0 || pr.Px <= 0 || pr.Py <= 0 || pr.Threads <= 0 {
		return fmt.Errorf("stencil: non-positive 2D parameter: %+v", pr)
	}
	if pr.N%pr.Px != 0 || pr.N%pr.Py != 0 {
		return fmt.Errorf("stencil: grid %d×%d does not divide N=%d", pr.Px, pr.Py, pr.N)
	}
	return nil
}

// exchange2d swaps the four halos. Rows are contiguous slices; columns
// are packed/unpacked through the vector datatype with its charged
// gather cost, like a real MPI application would.
func exchange2d(p *sim.Proc, r *core.Rank, l *slab, pr Params2D,
	colStage [4]*machine.Buffer) error {
	px := r.ID() % pr.Px
	py := r.ID() / pr.Px
	cols := l.w - 2
	rowB := cols * 8
	rowSlice := func(row int) core.Slice {
		return core.Slice{Buf: l.cur, Off: (row*l.w + 1) * 8, N: rowB}
	}
	var reqs []*core.Request
	add := func(q *core.Request, err error) error {
		if err != nil {
			// Drain what was already posted before bailing out.
			return errors.Join(err, r.WaitAll(p, reqs...))
		}
		reqs = append(reqs, q)
		return nil
	}
	// North/south: contiguous interior row segments.
	if py > 0 {
		north := r.ID() - pr.Px
		if err := add(r.Isend(p, north, tagUp, rowSlice(1))); err != nil {
			return err
		}
		if err := add(r.Irecv(p, north, tagDown, rowSlice(0))); err != nil {
			return err
		}
	}
	if py < pr.Py-1 {
		south := r.ID() + pr.Px
		if err := add(r.Isend(p, south, tagDown, rowSlice(l.rows))); err != nil {
			return err
		}
		if err := add(r.Irecv(p, south, tagUp, rowSlice(l.rows+1))); err != nil {
			return err
		}
	}
	// East/west: strided columns, packed into staging buffers.
	colDT := core.Vector(l.rows, 1, l.w, 8)
	colBytes := l.rows * 8
	colOff := func(col int) int { return (l.w + col) * 8 } // row 1, given column
	if px > 0 {
		west := r.ID() - 1
		r.Pack(p, colStage[0].Data[:colBytes], l.cur.Data[colOff(1):], colDT)
		if err := add(r.Isend(p, west, tagWest, core.Slice{Buf: colStage[0], N: colBytes})); err != nil {
			return err
		}
		if err := add(r.Irecv(p, west, tagEast, core.Slice{Buf: colStage[1], N: colBytes})); err != nil {
			return err
		}
	}
	if px < pr.Px-1 {
		east := r.ID() + 1
		r.Pack(p, colStage[2].Data[:colBytes], l.cur.Data[colOff(cols):], colDT)
		if err := add(r.Isend(p, east, tagEast, core.Slice{Buf: colStage[2], N: colBytes})); err != nil {
			return err
		}
		if err := add(r.Irecv(p, east, tagWest, core.Slice{Buf: colStage[3], N: colBytes})); err != nil {
			return err
		}
	}
	if err := r.WaitAll(p, reqs...); err != nil {
		return err
	}
	// Unpack received columns into the ghost columns.
	if px > 0 {
		r.Unpack(p, l.cur.Data[colOff(0):], colStage[1].Data[:colBytes], colDT)
	}
	if px < pr.Px-1 {
		r.Unpack(p, l.cur.Data[colOff(cols+1):], colStage[3].Data[:colBytes], colDT)
	}
	return nil
}

const (
	tagWest = 13
	tagEast = 14
)

// ReferenceChecksum2D sums the reference grid in the 2D rank-blocked
// order used by Run2D, preserving float association.
func ReferenceChecksum2D(grid []float64, pr Params2D) float64 {
	w := pr.N + 2
	rows := pr.N / pr.Py
	cols := pr.N / pr.Px
	total := 0.0
	for py := 0; py < pr.Py; py++ {
		for px := 0; px < pr.Px; px++ {
			part := 0.0
			for r := 1 + py*rows; r <= (py+1)*rows; r++ {
				for c := 1 + px*cols; c <= (px+1)*cols; c++ {
					part += grid[r*w+c]
				}
			}
			total += part
		}
	}
	return total
}

// Run2D runs the 2D-decomposed stencil on a caller-built world of
// pr.Procs() ranks.
func Run2D(w *core.World, pr Params2D) (Result, error) {
	if err := pr.Validate(); err != nil {
		return Result{}, err
	}
	return runRanks(w, func(p *sim.Proc, r *core.Rank) (Result, error) {
		// The block at grid row py = 0 holds the global top boundary in
		// its top ghost row.
		l := newSlab(r.Domain(), pr.N/pr.Py, pr.N/pr.Px+2, r.ID() < pr.Px)
		team := omp.NewTeam(w.Plat, pr.Threads, r.Loc())
		var colStage [4]*machine.Buffer
		for i := range colStage {
			colStage[i] = r.Mem(l.rows * 8)
		}
		exchange := func() error { return exchange2d(p, r, l, pr, colStage) }
		return timedLoop{
			iters: pr.Iters, skip: pr.SkipCompute, halo: pr.Procs() > 1,
			warm: func() error {
				err := exchange()
				l.swap()
				return err
			},
			exchange: exchange,
			sweep:    func() { l.sweep(p, team, pr.SkipCompute) },
			partial:  l.partialSum,
		}.run(p, r)
	})
}
