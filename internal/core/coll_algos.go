package core

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Collective algorithm codes, carried in causal events (Event.Pkt) and
// selected per call by size and world shape — or pinned through the
// Coll* config strings. New codes append at the end: recorded traces
// identify algorithms by value.
const (
	algoNone uint8 = iota
	algoNaive
	algoRing
	algoRD
	algoBinomial
	algoScatterAG
	algoDissem
	algoTree
	algoPairwise
	algoLinear
)

// algoNames spells the codes in Config.Coll* pins, counter names and
// span attributes.
var algoNames = [...]string{
	algoNone:      "none",
	algoNaive:     "naive",
	algoRing:      "ring",
	algoRD:        "rd",
	algoBinomial:  "binomial",
	algoScatterAG: "scatter-allgather",
	algoDissem:    "dissemination",
	algoTree:      "tree",
	algoPairwise:  "pairwise",
	algoLinear:    "linear",
}

// ---- Selection ----
//
// The selectors mirror the classic MPICH/OpenMPI decision structure:
// latency-bound regimes (small payloads, or fewer elements than ranks)
// take logarithmic-depth algorithms, bandwidth-bound regimes take the
// bandwidth-optimal ring/scatter family whose per-rank traffic is
// 2·(n-1)/n · N instead of 2·log₂(n) · N.

// pinned resolves one Config.Coll* string against the algorithms op
// offers: algoNone for "" (select automatically), an error for a name
// that is none of them.
func pinned(op, name string, offers ...uint8) (uint8, error) {
	if name == "" {
		return algoNone, nil
	}
	for _, a := range offers {
		if algoNames[a] == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("core: unknown %s algorithm %q", op, name)
}

func (g *group) pickAllreduce(s Slice, op Op) (uint8, error) {
	cfg := &g.r.w.Cfg
	if algo, err := pinned("allreduce", cfg.CollAllreduce, algoNaive, algoRing, algoRD); algo != algoNone || err != nil {
		return algo, err
	}
	if g.n == 1 {
		return algoNaive, nil
	}
	if s.N/op.ElemSize < g.n || s.N <= cfg.EagerMax {
		return algoRD, nil
	}
	return algoRing, nil
}

func (g *group) pickBcast(s Slice) (uint8, error) {
	cfg := &g.r.w.Cfg
	if algo, err := pinned("bcast", cfg.CollBcast, algoBinomial, algoScatterAG); algo != algoNone || err != nil {
		return algo, err
	}
	if s.N > cfg.EagerMax && g.n >= 8 {
		return algoScatterAG, nil
	}
	return algoBinomial, nil
}

func (g *group) pickBarrier() (uint8, error) {
	if algo, err := pinned("barrier", g.r.w.Cfg.CollBarrier, algoDissem, algoTree); algo != algoNone || err != nil {
		return algo, err
	}
	if g.n > 32 {
		// Dissemination is O(n log n) messages across the job (every
		// rank talks to log n distinct peers, so lazy connect degrades
		// to n log n endpoint pairs); the tree keeps both logarithmic.
		return algoTree, nil
	}
	return algoDissem, nil
}

func (g *group) pickAlltoall() (uint8, error) {
	if algo, err := pinned("alltoall", g.r.w.Cfg.CollAlltoall, algoPairwise, algoLinear); algo != algoNone || err != nil {
		return algo, err
	}
	return algoPairwise, nil
}

// ---- Allreduce algorithms ----

// allreduceNaive is reduce-to-0 plus broadcast — the reference the
// property tests hold every other algorithm to. It calls the binomial
// bodies directly so the oracle never re-enters the selector.
func (g *group) allreduceNaive(p *sim.Proc, s Slice, op Op) error {
	if err := g.Reduce(p, 0, s, op); err != nil {
		return err
	}
	return g.bcastBinomial(p, tagBcast, 0, s)
}

// allreduceRing is the bandwidth-optimal ring: a reduce-scatter pass
// leaves chunk i fully combined on rank i, then an allgather pass
// circulates the combined chunks. Each rank moves 2·(n-1)/n · N bytes
// regardless of n, which is why it wins for large payloads.
func (g *group) allreduceRing(p *sim.Proc, s Slice, op Op) error {
	n, me := g.n, g.myRank
	if n == 1 {
		return nil
	}
	elems := s.N / op.ElemSize
	// Chunk k covers elements [k·elems/n, (k+1)·elems/n): contiguous,
	// element-aligned, and within one byte-per-element of balanced.
	off := func(k int) int { return k * elems / n * op.ElemSize }
	clen := func(k int) int { return off(k+1) - off(k) }
	var tmp Slice
	if maxChunk := (elems + n - 1) / n * op.ElemSize; maxChunk > 0 {
		buf := g.r.Mem(maxChunk)
		defer g.r.v.Domain().Free(buf)
		tmp = Whole(buf)
	}
	right, left := (me+1)%n, (me-1+n)%n
	// Reduce-scatter: after step k we hold the combination of k+2
	// contributions for chunk (me-k-1) mod n.
	for step := 0; step < n-1; step++ {
		sc := (me - step + n) % n
		rc := (me - step - 1 + n) % n
		if err := g.sendrecv(p, tagARScat,
			right, s.Sub(off(sc), clen(sc)),
			left, tmp.Sub(0, clen(rc))); err != nil {
			return err
		}
		op.applyChecked(s.Sub(off(rc), clen(rc)).Bytes(), tmp.Sub(0, clen(rc)).Bytes())
	}
	// Allgather: circulate the finished chunks around the same ring;
	// the reduce-scatter left chunk me+1 complete here.
	return g.ringAllgather(p, tagARGath, 0, 1, s, off)
}

// allreduceRD is recursive doubling with the MPICH non-power-of-two
// fold: the first rem = n - 2^⌊log₂n⌋ even ranks fold into their odd
// neighbor, the surviving 2^⌊log₂n⌋ ranks exchange-and-combine across
// doubling distances, and the folded ranks get the result back. Depth
// log₂(n) with full-size exchanges — the latency-bound choice. Assumes
// a commutative op (every built-in Op is).
func (g *group) allreduceRD(p *sim.Proc, s Slice, op Op) error {
	n, id := g.n, g.myRank
	if n == 1 {
		return nil
	}
	buf := g.r.Mem(s.N)
	defer g.r.v.Domain().Free(buf)
	tmp := Whole(buf)
	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2
	newrank := -1
	switch {
	case id < 2*rem && id%2 == 0:
		if err := g.send(p, id+1, tagARFold, s); err != nil {
			return err
		}
	case id < 2*rem:
		if _, err := g.recv(p, id-1, tagARFold, tmp); err != nil {
			return err
		}
		op.applyChecked(s.Bytes(), tmp.Bytes())
		newrank = id / 2
	default:
		newrank = id - rem
	}
	if newrank != -1 {
		for mask := 1; mask < pof2; mask *= 2 {
			pn := newrank ^ mask
			partner := pn + rem
			if pn < rem {
				partner = pn*2 + 1
			}
			if err := g.sendrecv(p, tagARFold, partner, s, partner, tmp); err != nil {
				return err
			}
			op.applyChecked(s.Bytes(), tmp.Bytes())
		}
	}
	if id < 2*rem {
		if id%2 != 0 {
			return g.send(p, id-1, tagARFold, s)
		}
		_, err := g.recv(p, id+1, tagARFold, s)
		return err
	}
	return nil
}

// ---- Bcast algorithms ----

// bcastScatterAG is the MPICH large-message broadcast: a binomial
// scatter leaves byte chunk v on the rank with root-relative rank v,
// then a ring allgather reassembles the full payload everywhere. Total
// per-rank traffic ~2·(n-1)/n · N versus the binomial tree's log₂(n)·N.
func (g *group) bcastScatterAG(p *sim.Proc, root int, s Slice) error {
	n := g.n
	if n == 1 {
		return nil
	}
	v := vrank(g.myRank, root, n)
	ss := (s.N + n - 1) / n
	// Binomial scatter in root-relative space: each rank receives the
	// trailing region it is responsible for from the parent at its
	// lowest set bit, then forwards the halves below that bit.
	curr := 0
	if v == 0 {
		curr = s.N
	}
	mask := 1
	for mask < n {
		if v&mask != 0 {
			if recvSize := s.N - v*ss; recvSize > 0 {
				st, err := g.recv(p, arank(v-mask, root, n), tagBcastScat, s.Sub(v*ss, recvSize))
				if err != nil {
					return err
				}
				curr = st.Len
			}
			break
		}
		mask *= 2
	}
	for mask /= 2; mask > 0; mask /= 2 {
		if v+mask >= n {
			continue
		}
		if sendSize := curr - ss*mask; sendSize > 0 {
			if err := g.send(p, arank(v+mask, root, n), tagBcastScat, s.Sub((v+mask)*ss, sendSize)); err != nil {
				return err
			}
			curr -= sendSize
		}
	}
	// Ring allgather over the scattered chunks (chunk k is bytes
	// [k·ss, min((k+1)·ss, N)); trailing chunks may be empty).
	return g.ringAllgather(p, tagBcastScat, root, 0, s, func(k int) int {
		if o := k * ss; o < s.N {
			return o
		}
		return s.N
	})
}

// ringAllgather circulates the n chunks of s — chunk k is bytes
// [off(k), off(k+1)) — around the root-relative ring until every member
// holds them all. The member at ring position v enters owning chunk
// v+lead and passes one chunk to v+1 per step, n-1 steps.
func (g *group) ringAllgather(p *sim.Proc, tag, root, lead int, s Slice, off func(k int) int) error {
	n := g.n
	v := vrank(g.myRank, root, n)
	right, left := arank((v+1)%n, root, n), arank((v-1+n)%n, root, n)
	chunk := func(k int) Slice {
		k = (k%n + n) % n
		return s.Sub(off(k), off(k+1)-off(k))
	}
	for step := 0; step < n-1; step++ {
		if err := g.sendrecv(p, tag, right, chunk(v+lead-step), left, chunk(v+lead-step-1)); err != nil {
			return err
		}
	}
	return nil
}

// ---- Barrier algorithms ----

// barrierTree is a binomial fan-in/fan-out barrier: ranks report up a
// binomial tree to rank 0 and the release is a zero-byte binomial
// broadcast back down. 2·log₂(n) zero-byte messages per rank worst
// case, and — unlike dissemination — each rank only ever talks to its
// tree neighbors, keeping the job's connection graph O(n) under lazy
// connect.
func (g *group) barrierTree(p *sim.Proc) error {
	n, me := g.n, g.myRank
	for mask := 1; mask < n; mask *= 2 {
		if me&mask != 0 {
			if err := g.send(p, me^mask, tagBarrier, Slice{}); err != nil {
				return err
			}
			break
		}
		if child := me | mask; child < n {
			if _, err := g.recv(p, child, tagBarrier, Slice{}); err != nil {
				return err
			}
		}
	}
	return g.bcastBinomial(p, tagBarrier, 0, Slice{})
}

// ---- Alltoall algorithms ----

// alltoallLinear posts every receive, then every send, and waits — the
// oracle the pairwise exchange is tested against. Its own block is a
// local copy, as in the pairwise exchange: a posted receive from itself
// would wait for ever on the send a failed post never makes.
func (g *group) alltoallLinear(p *sim.Proc, src, dst Slice, blockN int) error {
	me := g.myRank
	copy(dst.Sub(me*blockN, blockN).Bytes(), src.Sub(me*blockN, blockN).Bytes())
	reqs := make([]*Request, 0, 2*g.n)
	for i := 0; i < g.n; i++ {
		if i == me {
			continue
		}
		q, err := g.irecv(p, i, tagAlltoall, dst.Sub(i*blockN, blockN))
		if err != nil {
			return errors.Join(err, g.waitAll(p, reqs))
		}
		reqs = append(reqs, q)
	}
	for i := 0; i < g.n; i++ {
		if i == me {
			continue
		}
		q, err := g.isend(p, i, tagAlltoall, src.Sub(i*blockN, blockN))
		if err != nil {
			return errors.Join(err, g.waitAll(p, reqs))
		}
		reqs = append(reqs, q)
	}
	return g.waitAll(p, reqs)
}
