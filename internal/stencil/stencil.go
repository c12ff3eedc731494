// Package stencil implements the paper's third experiment: a five-point
// Jacobi stencil on a 1282×1282 grid, parallelized with MPI across
// nodes and OpenMP within each Xeon Phi, runnable under all three
// execution modes (DCFA-MPI, 'Intel MPI on Xeon Phi', 'Intel MPI on
// Xeon + offload') plus a serial reference.
//
// Domain decomposition is by rows; each rank exchanges one ~10 KiB halo
// row per neighbor per iteration (Table III). All modes do the real
// floating-point math on simulated device memory, so every
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
	// Procs is the MPI process count; must divide N.
	Procs int
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

// Validate checks the decomposition.
func (pr Params) Validate() error {
	if pr.N <= 0 || pr.Iters <= 0 || pr.Procs <= 0 || pr.Threads <= 0 {
		return fmt.Errorf("stencil: non-positive parameter: %+v", pr)
	}
	if pr.N%pr.Procs != 0 {
		return fmt.Errorf("stencil: procs %d does not divide N %d", pr.Procs, pr.N)
	}
	return nil
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
// used here.
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

// jacobiRows computes one sweep over owned rows [lo, hi) (0-based owned
// index; slab row = owned index + 1) of a slab w cells wide. It writes
// columns 1..w-2 of those rows and nothing else: ghost rows and boundary
// columns are only read. The four neighbours are summed up, down, left,
// right; TestJacobiRowsMatchesIndexForm pins that order. jacobiRowVec
// computes each row's longest multiple-of-4 prefix where the CPU has a
// vector kernel, with the same bits, and the loop here does the rest.
func jacobiRows(next, cur []float64, w, lo, hi int) {
	for r := lo + 1; r <= hi; r++ {
		out, up, dn, left, right := rowViews(next, cur, w, r)
		for c := jacobiRowVec(out, up, dn, left, right); c < len(out); c++ {
			out[c] = 0.25 * (up[c] + dn[c] + left[c] + right[c])
		}
	}
}

// jacobiRowsCareful is jacobiRows, bit for bit, for rows where the sums
// may be tiny. The multiply is slow when its input or result is
// subnormal, so a tiny sum is quartered in integer arithmetic instead;
// every other sum, Inf and NaN included, keeps 0.25*v. Testing each
// sum costs more than the multiply saves on rows without tiny sums, which
// is why there are two loops. It reports whether any sum was tiny.
func jacobiRowsCareful(next, cur []float64, w, lo, hi int) (tiny bool) {
	for r := lo + 1; r <= hi; r++ {
		out, up, dn, left, right := rowViews(next, cur, w, r)
		for c := range out {
			v := up[c] + dn[c] + left[c] + right[c]
			if b := math.Float64bits(v); isTiny(b) {
				out[c] = math.Float64frombits(quarterTiny(b))
				tiny = true
			} else {
				out[c] = 0.25 * v
			}
		}
	}
	return tiny
}

// rowViews returns the interior of slab row r of next and its four
// neighbours in cur, each resliced to the interior's length, so the
// loops over them have no bounds check.
func rowViews(next, cur []float64, w, r int) (out, up, dn, left, right []float64) {
	out = next[r*w+1 : (r+1)*w-1]
	return out, cur[(r-1)*w+1:][:len(out)], cur[(r+1)*w+1:][:len(out)],
		cur[r*w:][:len(out)], cur[r*w+2:][:len(out)]
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
// grid after Iters sweeps. It computes every row: it is the oracle the
// distributed runs, which skip clear rows, are checked against.
func Reference(pr Params) []float64 {
	w := pr.Width()
	cur := make([]float64, w*w)
	next := make([]float64, w*w)
	heatTop(cur, w)
	heatTop(next, w)
	for it := 0; it < pr.Iters; it++ {
		jacobiRows(next, cur, w, 0, pr.N)
		cur, next = next, cur
	}
	return cur
}

// ReferenceChecksum sums the interior of a grid in the same
// rank-blocked order the distributed runs use, so floating-point
// association matches exactly.
func ReferenceChecksum(grid []float64, pr Params) float64 {
	w := pr.Width()
	rowsPer := pr.N / pr.Procs
	total := 0.0
	for k := 0; k < pr.Procs; k++ {
		part := 0.0
		for r := 1 + k*rowsPer; r <= (k+1)*rowsPer; r++ {
			for c := 1; c < w-1; c++ {
				part += grid[r*w+c]
			}
		}
		total += part
	}
	return total
}

// slab is one rank's local grid: rows owned rows of w cells plus a ghost
// row above and below, in two buffers a sweep reads (cur) and writes
// (next). In 1-D each row's first and last cell are the fixed boundary;
// a 2-D block is a slab of width cols+2 whose first and last cells are
// its ghost columns.
type slab struct {
	rows, w   int
	cur, next *machine.Buffer
	// curClear[r] (nextClear[r]) is true only if every cell of slab row
	// r of cur (next) is +0, ghost and boundary cells included; it may be
	// false for a row that is. A sweep keeps the flags exact for the
	// cells it writes. The cells it never writes (both ghost rows, each
	// row's first and last cell) are written between sweeps, by the
	// exchange, so each sweep first refreshes the flags for them.
	curClear, nextClear []bool
	// careful[r] sends slab row r through jacobiRowsCareful. It starts
	// true, turns false after a careful pass with no tiny sum, and turns
	// true again when the row is cleared. Both loops are exact, so it
	// decides only speed: a row entering the light cone late carries the
	// subnormal band at the heat front, and keeps it only for a while.
	careful  []bool
	body     func(lo, hi int) // computeRows, bound once for team.Execute
	computed int64            // rows the kernel computed, over all sweeps
}

// newSlab allocates a slab of rows owned rows, w cells wide, in dom,
// with the initial condition in both buffers (top: the slab holds the
// global top boundary). Domain.Alloc returns zeroed memory, so only the
// top row is written, and every row starts clear but that one.
func newSlab(dom *machine.Domain, rows, w int, top bool) *slab {
	bytes := (rows + 2) * w * 8
	l := &slab{rows: rows, w: w, cur: dom.Alloc(bytes), next: dom.Alloc(bytes),
		curClear: allTrue(rows + 2), nextClear: allTrue(rows + 2), careful: allTrue(rows + 2)}
	if top {
		heatTop(f64view(l.cur.Data), w)
		heatTop(f64view(l.next.Data), w)
		l.curClear[0], l.nextClear[0] = false, false
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

// swap makes next the current buffer, and its flags with it.
func (l *slab) swap() {
	l.cur, l.next = l.next, l.cur
	l.curClear, l.nextClear = l.nextClear, l.curClear
}

// sweep runs one Jacobi iteration: charge the parallel region for all
// interior points; execute the math by rows unless skipped; swap. Nothing
// is carried over into the new buffer: the fixed boundary cells start
// equal in both buffers and nothing writes them, and the exchange
// rewrites every ghost cell that faces a neighbour before the next sweep
// reads it.
func (l *slab) sweep(p *sim.Proc, team *omp.Team, skip bool) {
	points := l.rows * (l.w - 2)
	team.ParallelFor(p, points, nil)
	if !skip {
		l.compute(team)
	}
	l.swap()
}

// compute writes next from cur on the team's threads, after bringing
// cur's flags up to date with what the exchange wrote.
func (l *slab) compute(team *omp.Team) {
	refreshClear(l.curClear, f64view(l.cur.Data), l.w)
	team.Execute(l.rows, l.body)
	// A computed row, and only a computed row, leaves its next flag false.
	for _, c := range l.nextClear[1 : l.rows+1] {
		if !c {
			l.computed++
		}
	}
}

// computeRows sweeps owned rows [lo, hi), numbered as jacobiRows numbers
// them. It computes a row only when one of its three input rows in cur is
// not clear. Otherwise every input is +0, and jacobiRows would write
// 0.25*(+0 + +0 + +0 + +0) = +0 into each interior cell: the row's
// interior is zeroed if its next copy is not clear, and left alone if it
// is. A computed row goes through the careful loop while its careful
// flag is set.
func (l *slab) computeRows(lo, hi int) {
	next, cur, w := f64view(l.next.Data), f64view(l.cur.Data), l.w
	for r := lo + 1; r <= hi; r++ {
		switch {
		case !l.curClear[r-1] || !l.curClear[r] || !l.curClear[r+1]:
			if l.careful[r] {
				l.careful[r] = jacobiRowsCareful(next, cur, w, r-1, r)
			} else {
				jacobiRows(next, cur, w, r-1, r)
			}
			l.nextClear[r] = false
		case !l.nextClear[r]:
			clear(next[r*w+1 : (r+1)*w-1])
			l.nextClear[r] = true
			l.careful[r] = true
		}
	}
}

// plusZero reports whether every bit of v is zero. −0.0 is not +0: four
// of them sum to −0.0, so a row of them is not left unchanged by a skip.
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
)

// exchange swaps l's current halo rows with both neighbors using
// nonblocking MPI.
func exchange(p *sim.Proc, r *core.Rank, l *slab, procs int) error {
	buf := l.cur
	var reqs []*core.Request
	add := func(q *core.Request, err error) error {
		if err != nil {
			// Drain what was already posted before bailing out.
			return errors.Join(err, r.WaitAll(p, reqs...))
		}
		reqs = append(reqs, q)
		return nil
	}
	if up := r.ID() - 1; up >= 0 {
		if err := add(r.Isend(p, up, tagUp, l.row(buf, 1))); err != nil {
			return err
		}
		if err := add(r.Irecv(p, up, tagDown, l.row(buf, 0))); err != nil {
			return err
		}
	}
	if down := r.ID() + 1; down < procs {
		if err := add(r.Isend(p, down, tagDown, l.row(buf, l.rows))); err != nil {
			return err
		}
		if err := add(r.Irecv(p, down, tagUp, l.row(buf, l.rows+1))); err != nil {
			return err
		}
	}
	return r.WaitAll(p, reqs...)
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

// warmExchange is one warm-up halo exchange on l: exchange, then swap
// the buffers so both get registered.
func warmExchange(p *sim.Proc, r *core.Rank, l *slab, procs int) error {
	err := exchange(p, r, l, procs)
	l.swap()
	return err
}

// Run runs the stencil in mode m on c, one rank per pr.Procs: the
// application body of RunWorld, or for cluster.ModeHostOffload the
// host-ranks-plus-offload-device body.
func Run(c *cluster.Cluster, m cluster.Mode, pr Params) (Result, error) {
	if err := pr.Validate(); err != nil {
		return Result{}, err
	}
	w := c.World(m, pr.Procs)
	if m == cluster.ModeHostOffload {
		return runHostOffload(c, w, pr)
	}
	return RunWorld(w, pr)
}

// RunDCFA is RunWorld under DCFA-MPI (offload send buffer per the flag)
// on a fresh cluster with one node per process: the spelling benchmark/
// calls.
func RunDCFA(plat *perfmodel.Platform, pr Params, offload bool) (Result, error) {
	return RunWorld(cluster.New(plat, pr.Procs).DCFAWorld(pr.Procs, offload), pr)
}

// RunWorld runs the application body of the modes whose grid lives
// where the rank runs (every mode but host-offload) on a caller-built
// world.
func RunWorld(w *core.World, pr Params) (Result, error) {
	if err := pr.Validate(); err != nil {
		return Result{}, err
	}
	return runRanks(w, func(p *sim.Proc, r *core.Rank) (Result, error) {
		l := newSlab(r.Domain(), pr.N/pr.Procs, pr.Width(), r.ID() == 0)
		team := omp.NewTeam(w.Plat, pr.Threads, r.Loc())
		return timedLoop{
			iters: pr.Iters, skip: pr.SkipCompute, halo: pr.Procs > 1,
			warm:     func() error { return warmExchange(p, r, l, pr.Procs) },
			exchange: func() error { return exchange(p, r, l, pr.Procs) },
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
			warm: func() error { return warmExchange(p, r, hostSlab, pr.Procs) },
			exchange: func() error {
				// Copy out: pack the card's edge rows, one COI transfer,
				// unpack into the host slab for MPI.
				n := pack(micPack.Data, l, 1, l.rows)
				bus.OffloadTransfer(p, hostPack.Data[:n], micPack.Data[:n])
				unpack(hostSlab, 1, hostSlab.rows, hostPack.Data)
				// Host MPI halo exchange.
				if err := exchange(p, r, hostSlab, pr.Procs); err != nil {
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
// the baseline of the paper's Figure 12 speed-ups.
func RunSerial(plat *perfmodel.Platform, pr Params) (Result, error) {
	pr.Procs = 1
	pr.Threads = 1
	if err := pr.Validate(); err != nil {
		return Result{}, err
	}
	eng := sim.NewEngine()
	l := newSlab(machine.NewNode(0).Mic, pr.N, pr.Width(), true)
	team := omp.NewTeam(plat, 1, machine.MicMem)
	var res Result
	eng.Spawn("serial-stencil", func(p *sim.Proc) {
		start := p.Now()
		for it := 0; it < pr.Iters; it++ {
			l.sweep(p, team, pr.SkipCompute)
		}
		total := p.Now() - start
		res = Result{Total: total, PerIter: total / sim.Duration(pr.Iters)}
		if !pr.SkipCompute {
			res.Checksum = l.partialSum()
		}
	})
	if err := eng.Run(); err != nil {
		return Result{}, err
	}
	return res, nil
}
