package core

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Internal tag space for collectives on the world group; user tags must
// be non-negative. group.collTag shifts the block by collTagStride per
// group, which must stay above the block's length. Recorded causal
// events carry these values: -108 is retired, not free.
const (
	tagBarrier   = -100
	tagBcast     = -101
	tagReduce    = -102
	tagGather    = -103
	tagScatter   = -104
	tagAllgather = -105
	tagAlltoall  = -106
	tagScan      = -107
	tagARScat    = -109 // ring allreduce, reduce-scatter phase
	tagARGath    = -110 // ring allreduce, allgather phase
	tagARFold    = -111 // recursive-doubling allreduce exchanges
	tagBcastScat = -112 // scatter-allgather bcast
)

// ---- Barrier ----

// Barrier blocks until every member has entered it. The algorithm —
// dissemination for small groups, binomial tree for large ones — comes
// from the selector unless Config.CollBarrier pins it.
func (g *group) Barrier(p *sim.Proc) error {
	algo, err := g.pickBarrier()
	if err != nil {
		return err
	}
	return g.bracket(p, collBarrier, algo, func() error {
		if algo == algoTree {
			return g.barrierTree(p)
		}
		return g.barrierDissem(p)
	})
}

// barrierDissem is the dissemination barrier: ⌈log₂ P⌉ rounds of
// pairwise exchanges at doubling distances.
func (g *group) barrierDissem(p *sim.Proc) error {
	n, me := g.n, g.myRank
	for dist := 1; dist < n; dist *= 2 {
		if err := g.sendrecv(p, tagBarrier, (me+dist)%n, Slice{}, (me-dist+n)%n, Slice{}); err != nil {
			return err
		}
	}
	return nil
}

// ---- Bcast and Reduce ----

// vrank maps comm ranks into the root-relative ring used by the
// binomial trees.
func vrank(id, root, n int) int { return (id - root + n) % n }
func arank(v, root, n int) int  { return (v + root) % n }

// Bcast broadcasts root's s to every member. All must pass a slice of
// the same length. The algorithm — binomial tree for latency-bound
// payloads, scatter-allgather for bandwidth-bound ones — comes from
// the selector unless Config.CollBcast pins it.
func (g *group) Bcast(p *sim.Proc, root int, s Slice) error {
	algo, err := g.pickBcast(s)
	if err != nil {
		return err
	}
	return g.bracket(p, collBcast, algo, func() error {
		if algo == algoScatterAG {
			return g.bcastScatterAG(p, root, s)
		}
		return g.bcastBinomial(p, tagBcast, root, s)
	})
}

// bcastBinomial is the binomial-tree broadcast: each rank receives from
// the parent at its lowest set (root-relative) bit and forwards down.
// tag is tagBcast, or tagBarrier for the tree barrier's release.
func (g *group) bcastBinomial(p *sim.Proc, tag, root int, s Slice) error {
	n := g.n
	v := vrank(g.myRank, root, n)
	// Climb until our lowest set bit: receive from the parent there.
	mask := 1
	for mask < n {
		if v&mask != 0 {
			if _, err := g.recv(p, arank(v^mask, root, n), tag, s); err != nil {
				return err
			}
			break
		}
		mask *= 2
	}
	// Fan out to children below that bit, highest first.
	for mask /= 2; mask >= 1; mask /= 2 {
		if child := v | mask; child < n {
			if err := g.send(p, arank(child, root, n), tag, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// Reduce combines every member's contribution in s with op and leaves
// the result in s on root (binomial tree; s is clobbered on non-roots).
func (g *group) Reduce(p *sim.Proc, root int, s Slice, op Op) error {
	n := g.n
	if n == 1 {
		return nil
	}
	v := vrank(g.myRank, root, n)
	tmp := g.r.Mem(s.N)
	defer g.r.v.Domain().Free(tmp)
	for mask := 1; mask < n; mask *= 2 {
		if v&mask != 0 {
			return g.send(p, arank(v^mask, root, n), tagReduce, s)
		}
		if child := v | mask; child < n {
			if _, err := g.recv(p, arank(child, root, n), tagReduce, Whole(tmp)); err != nil {
				return err
			}
			op.applyChecked(s.Bytes(), tmp.Data)
		}
	}
	return nil
}

// Allreduce leaves the element-wise combination of every member's s in
// s on every member. The algorithm — recursive doubling when
// latency-bound, ring when bandwidth-bound — comes from the selector
// unless Config.CollAllreduce pins it.
func (g *group) Allreduce(p *sim.Proc, s Slice, op Op) error {
	algo, err := g.pickAllreduce(s, op)
	if err != nil {
		return err
	}
	return g.bracket(p, collAllreduce, algo, func() error {
		switch algo {
		case algoRing:
			return g.allreduceRing(p, s, op)
		case algoRD:
			return g.allreduceRD(p, s, op)
		}
		return g.allreduceNaive(p, s, op)
	})
}

// ---- Gather and Scatter ----

// blockLayout places member i's block in the root-side buffer of a
// rooted gather or scatter: uniform blocks of each bytes, or — the
// v-forms — counts[i] bytes back to back.
type blockLayout struct {
	each         int
	counts, offs []int
}

func (b blockLayout) at(i int) (off, n int) {
	if b.counts == nil {
		return i * b.each, b.each
	}
	return b.offs[i], b.counts[i]
}

// layout builds the block layout and its total size. counts is nil for
// the uniform forms; otherwise it holds one length per member, none
// negative, and this member's must equal mine, the length of the block
// it passed.
func (g *group) layout(op string, mine int, counts []int) (blockLayout, int, error) {
	if counts == nil {
		return blockLayout{each: mine}, g.n * mine, nil
	}
	if mine != counts[g.myRank] {
		return blockLayout{}, 0, fmt.Errorf("core: %sv rank %d passes %d bytes, counts say %d", op, g.myRank, mine, counts[g.myRank])
	}
	offs := make([]int, g.n)
	total := 0
	for i, n := range counts {
		if n < 0 {
			return blockLayout{}, 0, fmt.Errorf("core: %sv negative count", op)
		}
		offs[i] = total
		total += n
	}
	return blockLayout{counts: counts, offs: offs}, total, nil
}

// Gather concatenates every member's s (all the same length) into dst
// on root, ordered by rank. dst must be Size()*s.N bytes on root;
// ignored elsewhere.
func (g *group) Gather(p *sim.Proc, root int, s, dst Slice) error {
	return g.gather(p, root, s, dst, nil)
}

// Gatherv concatenates variable-length contributions on root: member i
// contributes s (whose length must equal counts[i]); root receives them
// back to back in dst, ordered by rank.
func (g *group) Gatherv(p *sim.Proc, root int, s, dst Slice, counts []int) error {
	if len(counts) != g.n {
		return fmt.Errorf("core: gatherv needs %d counts, got %d", g.n, len(counts))
	}
	return g.gather(p, root, s, dst, counts)
}

// gather is both forms. An empty block moves no message.
func (g *group) gather(p *sim.Proc, root int, s, dst Slice, counts []int) error {
	lay, total, err := g.layout("gather", s.N, counts)
	if err != nil {
		return err
	}
	if g.myRank != root {
		if s.N == 0 {
			return nil
		}
		return g.send(p, root, tagGather, s)
	}
	if dst.N < total {
		return fmt.Errorf("core: gather destination too small: %d < %d", dst.N, total)
	}
	reqs := make([]*Request, 0, g.n-1)
	for i := 0; i < g.n; i++ {
		off, n := lay.at(i)
		if i == root {
			copy(dst.Sub(off, n).Bytes(), s.Bytes())
		} else if n > 0 {
			q, err := g.irecv(p, i, tagGather, dst.Sub(off, n))
			if err != nil {
				return errors.Join(err, g.waitAll(p, reqs))
			}
			reqs = append(reqs, q)
		}
	}
	return g.waitAll(p, reqs)
}

// Scatter distributes root's src (Size()*recv.N bytes) so member i gets
// block i in recv.
func (g *group) Scatter(p *sim.Proc, root int, src, recv Slice) error {
	return g.scatter(p, root, src, recv, nil)
}

// Scatterv distributes variable-length blocks from root: member i
// receives counts[i] bytes into recv (recv.N must equal counts[i]).
func (g *group) Scatterv(p *sim.Proc, root int, src, recv Slice, counts []int) error {
	if len(counts) != g.n {
		return fmt.Errorf("core: scatterv needs %d counts, got %d", g.n, len(counts))
	}
	return g.scatter(p, root, src, recv, counts)
}

// scatter is both forms. An empty block moves no message.
func (g *group) scatter(p *sim.Proc, root int, src, recv Slice, counts []int) error {
	lay, total, err := g.layout("scatter", recv.N, counts)
	if err != nil {
		return err
	}
	if g.myRank != root {
		if recv.N == 0 {
			return nil
		}
		_, err := g.recv(p, root, tagScatter, recv)
		return err
	}
	if src.N < total {
		return fmt.Errorf("core: scatter source too small: %d < %d", src.N, total)
	}
	reqs := make([]*Request, 0, g.n-1)
	for i := 0; i < g.n; i++ {
		off, n := lay.at(i)
		if i == root {
			copy(recv.Bytes(), src.Sub(off, n).Bytes())
		} else if n > 0 {
			q, err := g.isend(p, i, tagScatter, src.Sub(off, n))
			if err != nil {
				return errors.Join(err, g.waitAll(p, reqs))
			}
			reqs = append(reqs, q)
		}
	}
	return g.waitAll(p, reqs)
}

// Allgather concatenates every member's s into dst (Size()*s.N bytes)
// on every member, using the ring algorithm.
func (g *group) Allgather(p *sim.Proc, s, dst Slice) error {
	return g.bracket(p, collAllgather, algoRing, func() error { return g.allgather(p, s, dst) })
}

func (g *group) allgather(p *sim.Proc, s, dst Slice) error {
	n, me := g.n, g.myRank
	if dst.N < n*s.N {
		return fmt.Errorf("core: allgather destination too small: %d < %d", dst.N, n*s.N)
	}
	copy(dst.Sub(me*s.N, s.N).Bytes(), s.Bytes())
	return g.ringAllgather(p, tagAllgather, 0, 0, dst, func(k int) int { return k * s.N })
}

// ---- Scan, ReduceScatter, Alltoall ----

// Scan leaves op(s₀ … s_rank) — the inclusive prefix reduction — in s
// on every member (linear chain).
func (g *group) Scan(p *sim.Proc, s Slice, op Op) error {
	n, me := g.n, g.myRank
	if n == 1 {
		return nil
	}
	if me > 0 {
		tmp := g.r.Mem(s.N)
		defer g.r.v.Domain().Free(tmp)
		if _, err := g.recv(p, me-1, tagScan, Whole(tmp)); err != nil {
			return err
		}
		// Prefix so far combined into our contribution: op(prev, mine).
		op.applyChecked(s.Bytes(), tmp.Data)
	}
	if me < n-1 {
		return g.send(p, me+1, tagScan, s)
	}
	return nil
}

// ReduceScatter combines src element-wise across all members and leaves
// block i of the result on member i in dst. src holds Size() blocks of
// dst.N bytes (reduce-to-root then scatter; simple and correct for the
// modest rank counts here).
func (g *group) ReduceScatter(p *sim.Proc, src, dst Slice, op Op) error {
	if src.N < g.n*dst.N {
		return fmt.Errorf("core: reduce_scatter source too small: %d < %d", src.N, g.n*dst.N)
	}
	src = src.Sub(0, g.n*dst.N)
	if err := g.Reduce(p, 0, src, op); err != nil {
		return err
	}
	return g.Scatter(p, 0, src, dst)
}

// Alltoall sends block i of src to member i and receives member i's
// block into block i of dst; src and dst hold Size() blocks of blockN
// bytes. The pairwise exchange is the default; Config.CollAlltoall can
// pin the linear (post-everything) oracle instead.
func (g *group) Alltoall(p *sim.Proc, src, dst Slice, blockN int) error {
	algo, err := g.pickAlltoall()
	if err != nil {
		return err
	}
	if src.N < g.n*blockN || dst.N < g.n*blockN {
		return fmt.Errorf("core: alltoall buffers too small")
	}
	return g.bracket(p, collAlltoall, algo, func() error {
		if algo == algoLinear {
			return g.alltoallLinear(p, src, dst, blockN)
		}
		return g.alltoallPairwise(p, src, dst, blockN)
	})
}

// alltoallPairwise exchanges with one partner per step: id^step in
// power-of-two groups, a rotation otherwise.
func (g *group) alltoallPairwise(p *sim.Proc, src, dst Slice, blockN int) error {
	n, me := g.n, g.myRank
	copy(dst.Sub(me*blockN, blockN).Bytes(), src.Sub(me*blockN, blockN).Bytes())
	for step := 1; step < n; step++ {
		to, from := (me+step)%n, (me-step+n)%n
		if n&(n-1) == 0 {
			to, from = me^step, me^step
		}
		if err := g.sendrecv(p, tagAlltoall,
			to, src.Sub(to*blockN, blockN),
			from, dst.Sub(from*blockN, blockN)); err != nil {
			return err
		}
	}
	return nil
}
