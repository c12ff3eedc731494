// Package stencil implements the paper's third experiment: a five-point
// Jacobi stencil on a 1282×1282 grid, parallelized with MPI across
// nodes and OpenMP within each Xeon Phi, runnable under all three
// execution modes (DCFA-MPI, 'Intel MPI on Xeon Phi', 'Intel MPI on
// Xeon + offload') plus a serial reference.
//
// The paper decomposes the grid by rows: each rank exchanges one ~10 KiB
// halo row per neighbor per iteration (Table III). That is the
// one-column case of a Rows×Cols process grid, whose columns add strided
// column halos, and the serial program is the one-rank grid. All modes
// do the real floating-point math on simulated device memory, so every
// configuration is verified bit-for-bit against the serial reference.
package stencil

import (
	"errors"
	"fmt"
	"math"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/omp"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// Params configures one stencil run.
type Params struct {
	// N is the interior dimension: the paper uses N=1280 (a 1282×1282
	// grid holding ~12 MiB of float64).
	N int
	// Iters is the iteration count (paper: 100).
	Iters int
	// Procs is the MPI process count.
	Procs int
	// Cols is the process grid's column count; 0 and 1 both mean the
	// paper's row decomposition. The grid has Procs/Cols rows of ranks,
	// numbered row by row, and each rank owns one block of the interior.
	Cols int
	// Threads is the OpenMP team size per process (paper sweeps to 56).
	Threads int
	// SkipCompute charges compute time without running the math —
	// benchmark mode; numeric verification uses SkipCompute=false.
	SkipCompute bool
}

// PaperParams returns the paper's configuration.
func PaperParams(procs, threads int) Params {
	return Params{N: 1280, Iters: 100, Procs: procs, Threads: threads}
}

// Validate checks the decomposition: Cols divides Procs, and the grid's
// rows and columns both divide N.
func (pr Params) Validate() error {
	if pr.N <= 0 || pr.Iters <= 0 || pr.Procs <= 0 || pr.Cols < 0 || pr.Threads <= 0 {
		return fmt.Errorf("stencil: non-positive parameter: %+v", pr)
	}
	rows, cols := pr.grid()
	if pr.Procs%cols != 0 || pr.N%rows != 0 || pr.N%cols != 0 {
		return fmt.Errorf("stencil: %d procs in %d columns do not divide N %d", pr.Procs, cols, pr.N)
	}
	return nil
}

// grid returns the process grid's rows and columns of ranks.
func (pr Params) grid() (rows, cols int) {
	cols = max(pr.Cols, 1)
	return pr.Procs / cols, cols
}

// Width is the padded grid dimension (interior + 2 boundary).
func (pr Params) Width() int { return pr.N + 2 }

// ComputeBytes is the full grid footprint (Table III "Computing Data").
func (pr Params) ComputeBytes() int { return pr.Width() * pr.Width() * 8 }

// HaloBytes is one exchanged row (Table III "MPI Communication Data":
// ~10 KiB at the paper's size).
func (pr Params) HaloBytes() int { return pr.Width() * 8 }

// Result reports one run.
type Result struct {
	// Total is the timed loop duration (rank 0's measurement after a
	// closing barrier).
	Total sim.Duration
	// PerIter is Total / Iters — the paper's "average processing time".
	PerIter sim.Duration
	// Checksum is the rank-blocked interior sum (zero when SkipCompute).
	Checksum float64
}

// f64view reinterprets device memory as float64s; device buffers come
// from make([]byte, ...), which is suitably aligned for the slab sizes
// used here, or from Domain.Reserve, which is page-aligned.
func f64view(b []byte) []float64 {
	if len(b) < 8 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// heatTop writes the initial condition's one nonzero row into a grid or
// slab w cells wide that starts all zero: its first row, the global top
// boundary, is 1.
func heatTop(g []float64, w int) {
	for c := range g[:w] {
		g[c] = 1
	}
}

// jacobiRows computes one row of a sweep: each cell of out from the
// cells at the same index of its four neighbour rows, as rowViews lays
// them out. out must not overlap them. The four neighbours are summed up,
// down, left, right; TestJacobiRowsMatchesIndexForm pins that order. The
// neighbours are resliced to out's length, so the loop has no bounds
// check. jacobiRowVec computes the row's longest multiple-of-4 prefix
// where the CPU has a vector kernel, with the same bits, and the loop
// here does the rest.
func jacobiRows(out, up, dn, left, right []float64) {
	n := len(out)
	up, dn, left, right = up[:n], dn[:n], left[:n], right[:n]
	for c := jacobiRowVec(out, up, dn, left, right); c < n; c++ {
		out[c] = 0.25 * (up[c] + dn[c] + left[c] + right[c])
	}
}

// jacobiRowsCareful is jacobiRows, bit for bit, for rows where the sums
// may be tiny. The multiply is slow when its input or result is
// subnormal, so a tiny sum is quartered in integer arithmetic instead;
// every other sum, Inf and NaN included, keeps 0.25*v. Testing each
// sum costs more than the multiply saves on rows without tiny sums, which
// is why there are two loops. It reports whether any sum was tiny.
func jacobiRowsCareful(out, up, dn, left, right []float64) (tiny bool) {
	n := len(out)
	up, dn, left, right = up[:n], dn[:n], left[:n], right[:n]
	for c := range out {
		v := up[c] + dn[c] + left[c] + right[c]
		if b := math.Float64bits(v); isTiny(b) {
			out[c] = math.Float64frombits(quarterTiny(b))
			tiny = true
		} else {
			out[c] = 0.25 * v
		}
	}
	return tiny
}

// rowViews returns the views the kernels take to compute the interior of
// row r of the w-wide grid g into out: out's first w-2 cells, the
// interiors of rows r-1 (up) and r+1 (dn), and row r shifted one cell
// either way (left, right).
func rowViews(out, g []float64, w, r int) (_, up, dn, left, right []float64) {
	return out[:w-2], g[(r-1)*w+1:], g[(r+1)*w+1:], g[r*w:], g[r*w+2:]
}

// denseRows writes owned rows [lo, hi) (0-based owned index; slab row =
// owned index + 1) of next from cur, two grids w cells wide: the dense
// two-grid sweep. It writes columns 1..w-2 of those rows and nothing
// else.
func denseRows(next, cur []float64, w, lo, hi int) {
	for r := lo + 1; r <= hi; r++ {
		jacobiRows(rowViews(next[r*w+1:], cur, w, r))
	}
}

const (
	signBit = 1 << 63
	// tinyEnd is the bit pattern of 2^-1020, the least magnitude with
	// biased exponent 3: the exact quarter of anything below it is below
	// 2^-1022, the least normal.
	tinyEnd = 3 << 52
)

// isTiny reports whether the float64 with bits b has a biased exponent of
// at most 2. ±0 is tiny too, though its multiply is fast: a row whose
// sums are all zero is computed ahead of the nonzero heat, and must stay
// careful until the heat brings its subnormals.
func isTiny(b uint64) bool { return b&^signBit < tinyEnd }

// quarterTiny returns the bits of 0.25*x, rounded to nearest even, for
// the float64 x with bits b and biased exponent at most 2 (±0 included).
// Up to 2^-1022 a float64 is an integer count of units of 2^-1074, and
// the exact quarter of x is below 2^-1022, so 0.25*x is the count of x's
// units divided by 4 and rounded. That count is x's magnitude bits at
// exponents 0 and 1, and twice them less 2^53 at exponent 2, where the
// implicit bit is worth 2^53 units.
func quarterTiny(b uint64) uint64 {
	a := b &^ signBit
	e := a >> 53 // 1 at biased exponent 2, else 0
	units := a<<e - e<<53
	q := units >> 2
	// Round up when the remainder is 3, or 2 with q odd.
	q += units >> 1 & (units | q) & 1
	return q | b&signBit
}

// Reference runs the serial stencil in plain Go and returns the full
// grid after Iters sweeps. It computes every row, from one grid into
// another: it is the oracle the distributed runs, which skip clear rows
// and update one grid in place, are checked against.
func Reference(pr Params) []float64 {
	w := pr.Width()
	cur := make([]float64, w*w)
	next := make([]float64, w*w)
	heatTop(cur, w)
	heatTop(next, w)
	for it := 0; it < pr.Iters; it++ {
		denseRows(next, cur, w, 0, pr.N)
		cur, next = next, cur
	}
	return cur
}

// ReferenceChecksum sums the interior of a grid in the same
// rank-blocked order the distributed runs use, one rank's block after
// another, so floating-point association matches exactly.
func ReferenceChecksum(grid []float64, pr Params) float64 {
	rows, cols := pr.grid()
	w, bh, bw := pr.Width(), pr.N/rows, pr.N/cols // block height and width
	total := 0.0
	for k := 0; k < pr.Procs; k++ {
		top, left := k/cols*bh, k%cols*bw
		part := 0.0
		for r := top + 1; r <= top+bh; r++ {
			for c := left + 1; c <= left+bw; c++ {
				part += grid[r*w+c]
			}
		}
		total += part
	}
	return total
}

// slab is one rank's local grid: rows owned rows of w cells plus a ghost
// row above and below, in one buffer, cur, which every sweep updates in
// place. Each row's first and last cell are the fixed boundary or, where
// the process grid has a neighbour west or east, a ghost column.
//
// A slab reserves a second buffer of cur's size, edge, for two jobs. The
// halo exchange alternates between the two: at even parity it posts
// cur's rows, at odd parity edge's, and the parity flips with every sweep
// and every warm-up exchange. That is the wire of the usual Jacobi code,
// which writes one grid from the other and swaps them, and registration
// caches key on each ghost row's address: so every registration and
// simulated time is that code's. Between an exchange's WaitAll and the
// next exchange edge holds nothing the run needs, and the sweep keeps its
// scratch rows there. So of edge's pages only those holding its edge rows
// (0, 1, rows, rows+1) or scratch rows are ever written.
type slab struct {
	rows, w int
	cur     *machine.Buffer // the grid
	edge    *machine.Buffer // the odd-parity wire rows and the sweep's scratch
	odd     bool            // the next exchange posts edge's rows
	// stage holds one column each, packed for the west neighbour, from
	// the west, for the east and from the east. Only a grid of more than
	// one column allocates it, so a row run's slab is no larger.
	stage *[4]*machine.Buffer
	// curClear[r] is true only if every cell of slab row r of cur is +0,
	// ghost and boundary cells included; it may be false for a row that
	// is. A sweep writes the flags of the grid it leaves into nextClear,
	// while its chunks read curClear, and then swaps the two. It keeps
	// them exact for the cells it writes. The cells it never writes (both
	// ghost rows, each row's first and last cell) are written between
	// sweeps, by the exchange, so each sweep first refreshes the flags
	// for them.
	curClear, nextClear []bool
	// careful[r] sends slab row r through jacobiRowsCareful. It starts
	// true and turns false after a careful pass with no tiny sum. Both
	// loops are exact, so it decides only speed: a row entering the light
	// cone late carries the subnormal band at the heat front, and keeps
	// it only for a while.
	careful []bool
	body    func(lo, hi int) // computeRows, bound once for team.Execute
}

// newSlab allocates a slab of rows owned rows, w cells wide, in dom,
// with the initial condition in its grid (top: the slab holds the global
// top boundary). Both buffers read zero when made (slabGrid), so only the
// grid's top row is written, and every row starts clear but that one.
// The exchange copies whole rows between the buffers, so edge needs no
// boundary of its own.
func newSlab(dom *machine.Domain, rows, w int, top bool) *slab {
	bytes := (rows + 2) * w * 8
	l := &slab{rows: rows, w: w, cur: slabGrid(dom, bytes), edge: slabGrid(dom, bytes),
		curClear: allTrue(rows + 2), nextClear: allTrue(rows + 2), careful: allTrue(rows + 2)}
	if top {
		heatTop(f64view(l.cur.Data), w)
		l.curClear[0] = false
	}
	l.body = l.computeRows
	return l
}

// allTrue returns n flags, all true.
func allTrue(n int) []bool {
	flags := make([]bool, n)
	for i := range flags {
		flags[i] = true
	}
	return flags
}

// row returns slab row i of buffer b as a core.Slice.
func (l *slab) row(b *machine.Buffer, i int) core.Slice {
	return core.Slice{Buf: b, Off: i * l.w * 8, N: l.w * 8}
}

// copyRow copies slab row i, whole, from buffer src to buffer dst.
func (l *slab) copyRow(dst, src *machine.Buffer, i int) {
	copy(l.row(dst, i).Bytes(), l.row(src, i).Bytes())
}

// interior returns the cells of slab row i of buffer b that a sweep
// writes: all but the first and the last.
func (l *slab) interior(b *machine.Buffer, i int) []float64 {
	return f64view(b.Data)[i*l.w+1 : (i+1)*l.w-1]
}

// sweep runs one Jacobi iteration: charge the parallel region for all
// interior points; execute the math by rows unless skipped; flip the
// exchange's parity. The fixed boundary cells are never written, and the
// exchange rewrites every ghost cell that faces a neighbour before the
// next sweep reads it.
func (l *slab) sweep(p *sim.Proc, team *omp.Team, skip bool) {
	points := l.rows * (l.w - 2)
	team.ParallelFor(p, points)
	if !skip {
		l.compute(team)
	}
	l.odd = !l.odd
}

// compute updates cur on the team's threads, after bringing its flags up
// to date with what the exchange wrote.
func (l *slab) compute(team *omp.Team) {
	refreshClear(l.curClear, f64view(l.cur.Data), l.w)
	l.finish(team.Execute(l.rows, l.body))
}

// computeRows sweeps owned rows [lo, hi), numbered as denseRows numbers
// them, one chunk of a sweep. It computes a row only when one of its
// three input rows is not clear. Otherwise every input is +0, and
// jacobiRows would write 0.25*(+0 + +0 + +0 + +0) = +0 into each interior
// cell, which the row already holds. A computed row goes through the
// careful loop while its careful flag is set.
//
// Row r's neighbours still read its old cells, so its new interior goes
// to a scratch row of edge. A row inside the chunk goes back into cur
// once row r+1 has read it as up; they take edge rows lo+2 and lo+3 in
// turn. The chunk's first and last rows wait in edge at their own index
// for finish: the chunks before and after, which omp.Execute may run side
// by side, read them too. Scratch rows lie within the chunk's own rows, so
// no two chunks share one.
func (l *slab) computeRows(lo, hi int) {
	g, e, w := f64view(l.cur.Data), f64view(l.edge.Data), l.w
	back, backSlot := 0, 0 // a row waiting in edge row backSlot for the next row, or 0
	for r := lo + 1; r <= hi; r++ {
		computed := !l.curClear[r-1] || !l.curClear[r] || !l.curClear[r+1]
		held, slot := r == lo+1 || r == hi, r
		if !held {
			slot = lo + 2 + (r-lo)&1
		}
		if computed {
			if l.careful[r] {
				l.careful[r] = jacobiRowsCareful(rowViews(e[slot*w+1:], g, w, r))
			} else {
				jacobiRows(rowViews(e[slot*w+1:], g, w, r))
			}
		}
		l.nextClear[r] = !computed
		if back != 0 {
			copy(l.interior(l.cur, back), l.interior(l.edge, backSlot))
			back = 0
		}
		if computed && !held {
			back, backSlot = r, slot
		}
	}
}

// finish ends a sweep whose rows ran in chunks of chunk rows, as
// omp.Execute split them: it writes each chunk's first and last row back
// into cur, now that no chunk reads them, and swaps the flags. A
// computed row, and only a computed row, leaves its flag false.
func (l *slab) finish(chunk int) {
	for lo := 0; lo < l.rows; lo += chunk {
		l.release(lo + 1)
		if hi := min(lo+chunk, l.rows); hi > lo+1 {
			l.release(hi)
		}
	}
	l.curClear, l.nextClear = l.nextClear, l.curClear
}

// release copies slab row r's new interior from edge back into cur, if
// the sweep computed it.
func (l *slab) release(r int) {
	if !l.nextClear[r] {
		copy(l.interior(l.cur, r), l.interior(l.edge, r))
	}
}

// plusZero reports whether every bit of v is zero. −0.0 is not +0: four
// of them sum to −0.0, so neither a row of them nor its neighbours may be
// skipped.
func plusZero(v float64) bool { return math.Float64bits(v) == 0 }

// zeroRow reports whether every cell of row is +0.
func zeroRow(row []float64) bool {
	for _, v := range row {
		if !plusZero(v) {
			return false
		}
	}
	return true
}

// refreshClear brings the flags of the w-wide grid g up to date with the
// cells no sweep writes: both ghost rows, whole, and each owned row's
// first and last cell.
func refreshClear(flags []bool, g []float64, w int) {
	last := len(flags) - 1
	flags[0] = zeroRow(g[:w])
	flags[last] = zeroRow(g[last*w : (last+1)*w])
	for r := 1; r < last; r++ {
		if flags[r] && !(plusZero(g[r*w]) && plusZero(g[r*w+w-1])) {
			flags[r] = false
		}
	}
}

// partialSum sums the rank's owned interior.
func (l *slab) partialSum() float64 {
	g := f64view(l.cur.Data)
	s := 0.0
	for r := 1; r <= l.rows; r++ {
		for c := 1; c < l.w-1; c++ {
			s += g[r*l.w+c]
		}
	}
	return s
}

const (
	tagUp   = 11 // halo moving toward lower ranks
	tagDown = 12 // halo moving toward higher ranks
	tagWest = 13 // column moving toward the west neighbour
	tagEast = 14 // column moving toward the east neighbour
)

// exchange swaps l's current halos with its neighbours in pr's process
// grid using nonblocking MPI: whole slab rows with the ranks north and
// south (ID∓cols), then, in a grid of more than one column, the strided
// columns with the ranks west and east (ID∓1), packed through the vector
// datatype with its charged gather cost, as a real MPI application would.
// At odd parity the rows go through edge (see slab): cur's edge rows are
// copied there before the sends are posted, and the received ghost rows
// back into cur after WaitAll. The columns travel through the stage
// buffers, so they are packed from and unpacked into cur directly.
func exchange(p *sim.Proc, r *core.Rank, l *slab, pr Params) error {
	id, g := r.ID(), l.cur
	_, cols := pr.grid()
	north, south := id >= cols, id+cols < pr.Procs
	buf := g
	if l.odd {
		buf = l.edge
		if north {
			l.copyRow(buf, g, 1)
		}
		if south {
			l.copyRow(buf, g, l.rows)
		}
	}
	// At most four neighbours, a send and a receive each: the list's
	// backing array stays on the stack.
	var posted [8]*core.Request
	reqs := posted[:0]
	add := func(q *core.Request, err error) error {
		if err != nil {
			// Drain what was already posted before bailing out.
			return errors.Join(err, r.WaitAll(p, reqs...))
		}
		reqs = append(reqs, q)
		return nil
	}
	// pair posts the send to peer, then the receive from it.
	pair := func(peer, sendTag, recvTag int, send, recv core.Slice) error {
		if err := add(r.Isend(p, peer, sendTag, send)); err != nil {
			return err
		}
		return add(r.Irecv(p, peer, recvTag, recv))
	}
	if north {
		if err := pair(id-cols, tagUp, tagDown, l.row(buf, 1), l.row(buf, 0)); err != nil {
			return err
		}
	}
	if south {
		if err := pair(id+cols, tagDown, tagUp, l.row(buf, l.rows), l.row(buf, l.rows+1)); err != nil {
			return err
		}
	}
	west, east := id%cols > 0, id%cols < cols-1
	colDT := core.Vector(l.rows, 1, l.w, 8)
	n := l.rows * 8
	col := func(c int) []byte { return g.Data[(l.w+c)*8:] } // from slab row 1
	stage := func(i int) core.Slice { return core.Slice{Buf: l.stage[i], N: n} }
	if west {
		r.Pack(p, l.stage[0].Data[:n], col(1), colDT)
		if err := pair(id-1, tagWest, tagEast, stage(0), stage(1)); err != nil {
			return err
		}
	}
	if east {
		r.Pack(p, l.stage[2].Data[:n], col(l.w-2), colDT)
		if err := pair(id+1, tagEast, tagWest, stage(2), stage(3)); err != nil {
			return err
		}
	}
	if err := r.WaitAll(p, reqs...); err != nil {
		return err
	}
	if l.odd && north {
		l.copyRow(g, buf, 0)
	}
	if l.odd && south {
		l.copyRow(g, buf, l.rows+1)
	}
	if west {
		r.Unpack(p, col(0), l.stage[1].Data[:n], colDT)
	}
	if east {
		r.Unpack(p, col(l.w-1), l.stage[3].Data[:n], colDT)
	}
	return nil
}

// gatherChecksum combines rank partial sums at rank 0 in rank order.
func gatherChecksum(p *sim.Proc, r *core.Rank, part float64) (float64, error) {
	mine := r.Mem(8)
	core.PutF64s(mine.Data, []float64{part})
	all := r.Mem(8 * r.Size())
	if err := r.Gather(p, 0, core.Whole(mine), core.Whole(all)); err != nil {
		return 0, err
	}
	if r.ID() != 0 {
		return 0, nil
	}
	parts := core.GetF64s(all.Data, r.Size())
	total := 0.0
	for _, v := range parts {
		total += v
	}
	return total, nil
}

// timedLoop is the measurement every mode and decomposition runs on
// each rank: in benchmark mode two untimed warm-up exchanges, so
// one-time registration costs amortize as in the paper's 100-iteration
// averages (MR cache warm, offload arena touched); a barrier; iters
// rounds of exchange (when there is a neighbor) + sweep; a closing
// barrier; and, when the math ran, the rank-ordered checksum.
type timedLoop struct {
	iters    int
	skip     bool         // Params.SkipCompute
	halo     bool         // more than one process
	warm     func() error // one warm-up exchange
	exchange func() error
	sweep    func()
	partial  func() float64
}

func (t timedLoop) run(p *sim.Proc, r *core.Rank) (Result, error) {
	if t.skip && t.halo {
		for i := 0; i < 2; i++ {
			if err := t.warm(); err != nil {
				return Result{}, err
			}
		}
	}
	if err := r.Barrier(p); err != nil {
		return Result{}, err
	}
	start := p.Now()
	for it := 0; it < t.iters; it++ {
		if t.halo {
			if err := t.exchange(); err != nil {
				return Result{}, err
			}
		}
		t.sweep()
	}
	if err := r.Barrier(p); err != nil {
		return Result{}, err
	}
	res := Result{Total: p.Now() - start}
	res.PerIter = res.Total / sim.Duration(t.iters)
	if !t.skip {
		var err error
		if res.Checksum, err = gatherChecksum(p, r, t.partial()); err != nil {
			return Result{}, err
		}
	}
	return res, nil
}

// runRanks runs body on every rank of w and returns rank 0's result.
func runRanks(w *core.World, body func(p *sim.Proc, r *core.Rank) (Result, error)) (Result, error) {
	var res Result
	err := w.Run(func(r *core.Rank) error {
		got, err := body(r.Proc(), r)
		if r.ID() == 0 {
			res = got
		}
		return err
	})
	return res, err
}

// warmExchange is one warm-up halo exchange on l: exchange, then flip
// the parity so the two warm-ups register both buffers' rows.
func warmExchange(p *sim.Proc, r *core.Rank, l *slab, pr Params) error {
	err := exchange(p, r, l, pr)
	l.odd = !l.odd
	return err
}

// Run runs the stencil in mode m on c, one rank per pr.Procs: the
// application body of RunWorld, or for cluster.ModeHostOffload the
// host-ranks-plus-offload-device body, which moves halo rows only.
func Run(c *cluster.Cluster, m cluster.Mode, pr Params) (Result, error) {
	if err := pr.Validate(); err != nil {
		return Result{}, err
	}
	if m != cluster.ModeHostOffload {
		return RunWorld(c.World(m, pr.Procs), pr)
	}
	if pr.Cols > 1 {
		return Result{}, fmt.Errorf("stencil: %s decomposes by rows only, not in %d columns", m, pr.Cols)
	}
	return runHostOffload(c, c.World(m, pr.Procs), pr)
}

// RunDCFA is RunWorld under DCFA-MPI (offload send buffer per the flag)
// on a fresh cluster with one node per process: the spelling benchmark/
// calls.
func RunDCFA(plat *perfmodel.Platform, pr Params, offload bool) (Result, error) {
	return RunWorld(cluster.New(plat, pr.Procs).DCFAWorld(pr.Procs, offload), pr)
}

// RunWorld runs the application body of the modes whose grid lives
// where the rank runs (every mode but host-offload) on a caller-built
// world, for any process grid pr describes.
func RunWorld(w *core.World, pr Params) (Result, error) {
	if err := pr.Validate(); err != nil {
		return Result{}, err
	}
	return runRanks(w, func(p *sim.Proc, r *core.Rank) (Result, error) {
		rows, cols := pr.grid()
		// The grid's first row of ranks holds the global top boundary.
		l := newSlab(r.Domain(), pr.N/rows, pr.N/cols+2, r.ID() < cols)
		team := omp.NewTeam(w.Plat, pr.Threads, r.Loc())
		if cols > 1 {
			n := l.rows * 8
			l.stage = &[4]*machine.Buffer{r.Mem(n), r.Mem(n), r.Mem(n), r.Mem(n)}
		}
		return timedLoop{
			iters: pr.Iters, skip: pr.SkipCompute, halo: pr.Procs > 1,
			warm:     func() error { return warmExchange(p, r, l, pr) },
			exchange: func() error { return exchange(p, r, l, pr) },
			sweep:    func() { l.sweep(p, team, pr.SkipCompute) },
			partial:  l.partialSum,
		}.run(p, r)
	})
}

// runHostOffload is the application body of the 'Intel MPI on Xeon
// where it offloads computation to Xeon Phi co-processors' mode: host
// MPI ranks, computation and grid on the co-processor, per-iteration
// offload kernel launches, and packed halo transfers over the COI path
// (Table III: copy in + copy out each iteration). Each rank drives its
// node's PCIe bus on c.
func runHostOffload(c *cluster.Cluster, w *core.World, pr Params) (Result, error) {
	return runRanks(w, func(p *sim.Proc, r *core.Rank) (Result, error) {
		bus := c.Buses[c.NodeFor(r.ID())]
		bus.OffloadInit(p) // one-time, outside the timed loop, as optimized
		micDom := bus.Node.Mic
		rows, top := pr.N/pr.Procs, r.ID() == 0
		l := newSlab(micDom, rows, pr.Width(), top) // compute slab on the card
		// The host slab only stages halos for MPI. It is never swept,
		// so its flags are never read, though unpack writes its owned
		// rows 1 and rows.
		hostSlab := newSlab(r.Domain(), rows, pr.Width(), top)
		team := omp.NewTeam(w.Plat, pr.Threads, machine.MicMem)
		hasUp := r.ID() > 0
		hasDown := r.ID() < pr.Procs-1
		rowB := l.w * 8
		// Persistent, page-aligned packed staging buffers (policies 2+3).
		hostPack := r.Domain().Alloc(2 * rowB)
		micPack := micDom.Alloc(2 * rowB)
		// pack gathers this rank's up/down rows (upRow, downRow of s)
		// into dst and returns the bytes packed; unpack scatters them
		// back.
		pack := func(dst []byte, s *slab, upRow, downRow int) int {
			off := 0
			if hasUp {
				off += copy(dst[off:off+rowB], s.row(s.cur, upRow).Bytes())
			}
			if hasDown {
				off += copy(dst[off:off+rowB], s.row(s.cur, downRow).Bytes())
			}
			return off
		}
		unpack := func(s *slab, upRow, downRow int, src []byte) {
			off := 0
			if hasUp {
				off += copy(s.row(s.cur, upRow).Bytes(), src[off:off+rowB])
			}
			if hasDown {
				copy(s.row(s.cur, downRow).Bytes(), src[off:off+rowB])
			}
		}
		return timedLoop{
			iters: pr.Iters, skip: pr.SkipCompute, halo: pr.Procs > 1,
			// The warm-up touches only what MPI registers: the host slab.
			warm: func() error { return warmExchange(p, r, hostSlab, pr) },
			exchange: func() error {
				// Copy out: pack the card's edge rows, one COI transfer,
				// unpack into the host slab for MPI.
				n := pack(micPack.Data, l, 1, l.rows)
				bus.OffloadTransfer(p, hostPack.Data[:n], micPack.Data[:n])
				unpack(hostSlab, 1, hostSlab.rows, hostPack.Data)
				// Host MPI halo exchange.
				if err := exchange(p, r, hostSlab, pr); err != nil {
					return err
				}
				// Copy in: pack received ghost rows, one COI transfer,
				// unpack into the card's ghost rows.
				n = pack(hostPack.Data, hostSlab, 0, hostSlab.rows+1)
				bus.OffloadTransfer(p, micPack.Data[:n], hostPack.Data[:n])
				unpack(l, 0, l.rows+1, micPack.Data)
				return nil
			},
			// Kernel launch each iteration (the mode's fixed overhead),
			// then the sweep on the card.
			sweep: func() {
				bus.OffloadLaunch(p, pr.Threads)
				l.sweep(p, team, pr.SkipCompute)
			},
			partial: l.partialSum,
		}.run(p, r)
	})
}

// RunSerial runs the single-thread, no-MPI program on one co-processor:
// the baseline of the paper's Figure 12 speed-ups. It is RunWorld on a
// one-rank DCFA-MPI world, which has no halo to exchange and whose
// barriers take no simulated time, so Total is the sweeps' alone.
func RunSerial(plat *perfmodel.Platform, pr Params) (Result, error) {
	pr.Procs, pr.Cols, pr.Threads = 1, 1, 1
	return RunWorld(cluster.New(plat, 1).World(cluster.ModeDCFABase, 1), pr)
}
