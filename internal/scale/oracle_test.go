package scale

// The property matrix (ISSUE 10 satellite): every collective algorithm
// × every topology × rank counts × seeds × {world, a Split half}, each
// result compared byte-for-byte against the naive-oracle simulation AND
// a host-computed expectation. Payloads are small-integer f64s so every
// reduction order is exact and results must be bit-identical regardless
// of algorithm.

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/topo"
)

// patByte is the deterministic byte at position i of the (src → dst)
// block — bcast uses dst = 0.
func patByte(seed uint64, src, dst, i int) byte {
	return byte(uint64(i)*2654435761 + seed*31 + uint64(src*7+dst*131))
}

func fillPatBlock(b []byte, seed uint64, src, dst int) {
	for i := range b {
		b[i] = patByte(seed, src, dst, i)
	}
}

// group is what the oracle needs of *core.Rank (the world) and of a
// *core.Comm from Split.
type group interface {
	Allreduce(p *sim.Proc, s core.Slice, op core.Op) error
	Bcast(p *sim.Proc, root int, s core.Slice) error
	Alltoall(p *sim.Proc, src, dst core.Slice, blockN int) error
	Barrier(p *sim.Proc) error
}

// evenSize is the size of the even-rank half of a world.
func evenSize(ranks int) int { return (ranks + 1) / 2 }

// collRun is one simulated collective: kind selects the verb, algo pins
// the algorithm through the world Config, and every member's result
// buffer is copied out for comparison. With even set the collective
// runs on the even-rank half from Split (the odd ranks only take part
// in the Split) and results are indexed by comm rank. Barrier runs
// carry no data; the runner instead checks the synchronization property
// (no member may leave before the last one arrives).
func collRun(t *testing.T, kind, algo, topoName string, ranks int, even bool, seed uint64, elems int) [][]byte {
	t.Helper()
	plat := perfmodel.Default()
	c := cluster.NewWithTopo(plat, ranks, topoName)
	cfg := core.ConfigFromPlatform(plat)
	cfg.Offload = false
	cfg.EagerSlots = 8
	// A 1 KiB threshold so the elems variants straddle eager (64 B),
	// boundary+8 (1032 B) and rendezvous (2400 B) paths.
	cfg.EagerMax = 1024
	switch kind {
	case "allreduce":
		cfg.CollAllreduce = algo
	case "bcast":
		cfg.CollBcast = algo
	case "barrier":
		cfg.CollBarrier = algo
	case "alltoall":
		cfg.CollAlltoall = algo
	default:
		t.Fatalf("unknown collective kind %q", kind)
	}
	w := core.NewWorld(c.Eng, plat, cfg, c.HostEnvs(ranks))
	worldRanks := ranks
	if even {
		ranks = evenSize(ranks)
	}
	out := make([][]byte, ranks)
	pre := make([]sim.Time, ranks)
	post := make([]sim.Time, ranks)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		me := r.ID()
		var g group = r
		if even {
			color := -1
			if me%2 == 0 {
				color = 0
			}
			sub, err := r.CommWorld().Split(p, color, me)
			if sub == nil {
				return err
			}
			g, me = sub, sub.Rank()
		}
		switch kind {
		case "allreduce":
			buf := r.Mem(elems * 8)
			bench.ScaleFill(buf.Data, seed, me, elems)
			if err := g.Allreduce(p, core.Whole(buf), core.OpSumF64); err != nil {
				return err
			}
			out[me] = append([]byte(nil), buf.Data...)
		case "bcast":
			root := int(seed % uint64(ranks))
			buf := r.Mem(elems * 8)
			if me == root {
				fillPatBlock(buf.Data, seed, root, 0)
			}
			if err := g.Bcast(p, root, core.Whole(buf)); err != nil {
				return err
			}
			out[me] = append([]byte(nil), buf.Data...)
		case "alltoall":
			block := elems * 8
			src, dst := r.Mem(ranks*block), r.Mem(ranks*block)
			for j := 0; j < ranks; j++ {
				fillPatBlock(src.Data[j*block:(j+1)*block], seed, me, j)
			}
			if err := g.Alltoall(p, core.Whole(src), core.Whole(dst), block); err != nil {
				return err
			}
			out[me] = append([]byte(nil), dst.Data...)
		case "barrier":
			// Desynchronize arrivals so the property is non-trivial.
			p.Sleep(sim.Duration(me+1) * 3 * sim.Microsecond)
			pre[me] = p.Now()
			if err := g.Barrier(p); err != nil {
				return err
			}
			post[me] = p.Now()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s/%s on %s, %d ranks (even half: %v), seed %d: %v", kind, algo, topoName, worldRanks, even, seed, err)
	}
	if kind == "barrier" {
		maxPre, minPost := pre[0], post[0]
		for i := 1; i < ranks; i++ {
			if pre[i] > maxPre {
				maxPre = pre[i]
			}
			if post[i] < minPost {
				minPost = post[i]
			}
		}
		if minPost < maxPre {
			t.Errorf("%s barrier on %s, %d ranks (even half: %v): a rank left at %v before the last arrival at %v",
				algo, topoName, worldRanks, even, minPost, maxPre)
		}
	}
	return out
}

// hostExpected computes the collective's result on the host: the oracle
// every simulated algorithm must reproduce bit-for-bit.
func hostExpected(kind string, ranks int, seed uint64, elems int) [][]byte {
	out := make([][]byte, ranks)
	switch kind {
	case "allreduce":
		sum := make([]float64, elems)
		one := make([]byte, elems*8)
		for id := 0; id < ranks; id++ {
			bench.ScaleFill(one, seed, id, elems)
			for i := range sum {
				sum[i] += math.Float64frombits(binary.LittleEndian.Uint64(one[i*8:]))
			}
		}
		res := make([]byte, elems*8)
		for i, v := range sum {
			binary.LittleEndian.PutUint64(res[i*8:], math.Float64bits(v))
		}
		for id := range out {
			out[id] = res
		}
	case "bcast":
		root := int(seed % uint64(ranks))
		res := make([]byte, elems*8)
		fillPatBlock(res, seed, root, 0)
		for id := range out {
			out[id] = res
		}
	case "alltoall":
		block := elems * 8
		for id := range out {
			buf := make([]byte, ranks*block)
			for j := 0; j < ranks; j++ {
				fillPatBlock(buf[j*block:(j+1)*block], seed, j, id)
			}
			out[id] = buf
		}
	}
	return out
}

func diffOutputs(got, want [][]byte) error {
	for id := range got {
		if len(got[id]) != len(want[id]) {
			return fmt.Errorf("rank %d: %d result bytes, want %d", id, len(got[id]), len(want[id]))
		}
		for i := range got[id] {
			if got[id][i] != want[id][i] {
				return fmt.Errorf("rank %d: byte %d = %#x, want %#x", id, i, got[id][i], want[id][i])
			}
		}
	}
	return nil
}

// TestCollectiveOracle is the matrix. Rank counts cover the degenerate
// (1), even/odd/prime small worlds, a power of two, and — without
// -short — 64 (past the lazy-connect threshold, multi-leaf on both fat
// trees). The 1000-rank point is TestScaleAllreduce's job (flag-driven,
// CI smoke); running every algorithm × topology there would take hours.
func TestCollectiveOracle(t *testing.T) {
	rankSet := []int{1, 2, 3, 5, 8}
	if !testing.Short() {
		rankSet = append(rankSet, 64)
	}
	// Seed/size variants straddle EagerMax=1024: 64 B eager, 1032 B
	// smallest-rendezvous, 2400 B rendezvous.
	variants := []struct {
		seed  uint64
		elems int
	}{{1, 8}, {2, 129}, {3, 300}}
	families := []struct {
		kind   string
		oracle string   // algorithm the others must match (run on the flat fabric)
		algos  []string // every selectable algorithm, oracle included
	}{
		{"allreduce", "naive", []string{"naive", "ring", "rd"}},
		{"bcast", "binomial", []string{"binomial", "scatter-allgather"}},
		{"alltoall", "linear", []string{"linear", "pairwise"}},
		{"barrier", "", []string{"dissemination", "tree"}},
	}
	for _, fam := range families {
		for _, ranks := range rankSet {
			for _, v := range variants {
				fam, ranks, v := fam, ranks, v
				t.Run(fmt.Sprintf("%s/%dranks/%delems", fam.kind, ranks, v.elems), func(t *testing.T) {
					// The group axis: the world, then the even-rank half
					// from Split, a group of evenSize(ranks).
					for _, even := range []bool{false, true} {
						n, where := ranks, "world"
						if even {
							n, where = evenSize(ranks), "even half"
						}
						want := hostExpected(fam.kind, n, v.seed, v.elems)
						var oracle [][]byte
						if fam.oracle != "" {
							oracle = collRun(t, fam.kind, fam.oracle, "flat", ranks, even, v.seed, v.elems)
							if err := diffOutputs(oracle, want); err != nil {
								t.Fatalf("oracle %s/%s on the %s vs host: %v", fam.kind, fam.oracle, where, err)
							}
						}
						for _, topoName := range topo.Names() {
							for _, algo := range fam.algos {
								got := collRun(t, fam.kind, algo, topoName, ranks, even, v.seed, v.elems)
								if fam.oracle == "" {
									continue // barrier: property checked inside collRun
								}
								if err := diffOutputs(got, oracle); err != nil {
									t.Errorf("%s/%s on %s, %s, differs from naive oracle: %v", fam.kind, algo, topoName, where, err)
								}
								if err := diffOutputs(got, want); err != nil {
									t.Errorf("%s/%s on %s, %s, differs from host expectation: %v", fam.kind, algo, topoName, where, err)
								}
							}
						}
					}
				})
			}
		}
	}
}
