package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

func TestCommWorldMirror(t *testing.T) {
	c := cluster.New(perfmodel.Default(), 4)
	w := c.DCFAWorld(4, true)
	err := w.Run(func(r *core.Rank) error {
		cw := r.CommWorld()
		if cw.Rank() != r.ID() || cw.Size() != 4 {
			return fmt.Errorf("comm world rank=%d size=%d", cw.Rank(), cw.Size())
		}
		if cw.WorldRank(2) != 2 {
			return fmt.Errorf("translation broken")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitEvenOdd(t *testing.T) {
	c := cluster.New(perfmodel.Default(), 6)
	w := c.DCFAWorld(6, true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		cw := r.CommWorld()
		sub, err := cw.Split(p, r.ID()%2, r.ID())
		if err != nil {
			return err
		}
		if sub.Size() != 3 {
			return fmt.Errorf("split size %d, want 3", sub.Size())
		}
		if sub.WorldRank(sub.Rank()) != r.ID() {
			return fmt.Errorf("self translation broken")
		}
		// Members must be sorted by key (= world rank here).
		for i := 1; i < sub.Size(); i++ {
			if sub.WorldRank(i) <= sub.WorldRank(i-1) {
				return fmt.Errorf("members unsorted: %d then %d", sub.WorldRank(i-1), sub.WorldRank(i))
			}
		}
		// Allreduce within the group: sum of even or odd world ranks.
		buf := r.Mem(8)
		core.PutF64s(buf.Data, []float64{float64(r.ID())})
		if err := sub.Allreduce(p, core.Whole(buf), core.OpSumF64); err != nil {
			return err
		}
		want := 0.0
		for i := r.ID() % 2; i < 6; i += 2 {
			want += float64(i)
		}
		if got := core.GetF64s(buf.Data, 1)[0]; got != want {
			return fmt.Errorf("group sum %v, want %v", got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitUndefinedColor(t *testing.T) {
	c := cluster.New(perfmodel.Default(), 4)
	w := c.DCFAWorld(4, true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		cw := r.CommWorld()
		color := 0
		if r.ID() == 3 {
			color = -1 // MPI_UNDEFINED
		}
		sub, err := cw.Split(p, color, 0)
		if err != nil {
			return err
		}
		if r.ID() == 3 {
			if sub != nil {
				return fmt.Errorf("undefined color produced a comm")
			}
			return nil
		}
		if sub.Size() != 3 {
			return fmt.Errorf("size %d, want 3", sub.Size())
		}
		return sub.Barrier(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitKeyReordersRanks(t *testing.T) {
	c := cluster.New(perfmodel.Default(), 4)
	w := c.DCFAWorld(4, true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		// Reverse order: key = -world rank.
		sub, err := r.CommWorld().Split(p, 0, -r.ID())
		if err != nil {
			return err
		}
		if got := sub.Rank(); got != 3-r.ID() {
			return fmt.Errorf("world %d got comm rank %d, want %d", r.ID(), got, 3-r.ID())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGridRowColComms(t *testing.T) {
	// A 2x3 process grid with row and column communicators — the
	// standard pattern for 2D decompositions.
	const rows, cols = 2, 3
	c := cluster.New(perfmodel.Default(), rows*cols)
	w := c.DCFAWorld(rows*cols, true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		myRow := r.ID() / cols
		myCol := r.ID() % cols
		cw := r.CommWorld()
		rowComm, err := cw.Split(p, myRow, myCol)
		if err != nil {
			return err
		}
		colComm, err := cw.Split(p, myCol, myRow)
		if err != nil {
			return err
		}
		if rowComm.Size() != cols || colComm.Size() != rows {
			return fmt.Errorf("sizes row=%d col=%d", rowComm.Size(), colComm.Size())
		}
		// Row-wise sum then column-wise max.
		buf := r.Mem(8)
		core.PutF64s(buf.Data, []float64{float64(r.ID())})
		if err := rowComm.Allreduce(p, core.Whole(buf), core.OpSumF64); err != nil {
			return err
		}
		rowSum := 0.0
		for cc := 0; cc < cols; cc++ {
			rowSum += float64(myRow*cols + cc)
		}
		if got := core.GetF64s(buf.Data, 1)[0]; got != rowSum {
			return fmt.Errorf("row sum %v, want %v", got, rowSum)
		}
		if err := colComm.Allreduce(p, core.Whole(buf), core.OpMaxF64); err != nil {
			return err
		}
		// Max of row sums in my column = bottom row's sum.
		maxSum := 0.0
		for cc := 0; cc < cols; cc++ {
			maxSum += float64((rows-1)*cols + cc)
		}
		if got := core.GetF64s(buf.Data, 1)[0]; got != maxSum {
			return fmt.Errorf("col max %v, want %v", got, maxSum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommPointToPointAndStatusTranslation(t *testing.T) {
	c := cluster.New(perfmodel.Default(), 4)
	w := c.DCFAWorld(4, true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		// Group = {3, 2} via keys, so comm rank 0 = world 3.
		color := -1
		if r.ID() >= 2 {
			color = 1
		}
		sub, err := r.CommWorld().Split(p, color, -r.ID())
		if err != nil {
			return err
		}
		if sub == nil {
			return nil
		}
		if r.ID() == 3 { // comm rank 0
			buf := r.Mem(8)
			buf.Data[0] = 0x3A
			return sub.Send(p, 1, 5, core.Whole(buf))
		}
		// world 2 = comm rank 1
		buf := r.Mem(8)
		st, err := sub.Recv(p, core.AnySource, core.AnyTag, core.Whole(buf))
		if err != nil {
			return err
		}
		if st.Source != 0 || st.Tag != 5 || buf.Data[0] != 0x3A {
			return fmt.Errorf("status %+v data %#x", st, buf.Data[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommBcastAllRoots(t *testing.T) {
	c := cluster.New(perfmodel.Default(), 5)
	w := c.DCFAWorld(5, true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		sub, err := r.CommWorld().Split(p, 0, r.ID())
		if err != nil {
			return err
		}
		for root := 0; root < sub.Size(); root++ {
			buf := r.Mem(64)
			if sub.Rank() == root {
				fill(buf.Data, byte(root+40))
			}
			if err := sub.Bcast(p, root, core.Whole(buf)); err != nil {
				return err
			}
			want := make([]byte, 64)
			fill(want, byte(root+40))
			for i := range want {
				if buf.Data[i] != want[i] {
					return fmt.Errorf("root %d: bcast corrupted", root)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitFreesItsBuffers: Split stages (color, key) in two rank
// buffers; both must be back in the domain when it returns.
func TestSplitFreesItsBuffers(t *testing.T) {
	c := cluster.New(perfmodel.Default(), 4)
	w := c.DCFAWorld(4, true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		before := r.Domain().BytesLive
		for i := 0; i < 100; i++ {
			color := r.ID() % 2
			if i%10 == 9 && r.ID() == 3 {
				color = -1 // the MPI_UNDEFINED return path
			}
			if _, err := r.CommWorld().Split(p, color, r.ID()); err != nil {
				return err
			}
		}
		if after := r.Domain().BytesLive; after != before {
			return fmt.Errorf("rank %d: BytesLive %d before 100 splits, %d after", r.ID(), before, after)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCommBadTagAndRankAreTypedErrors: a tag outside [0, 65536) or a
// rank outside the group comes back as an error from every
// point-to-point call on a communicator, without posting anything.
func TestCommBadTagAndRankAreTypedErrors(t *testing.T) {
	for _, tc := range []struct {
		name     string
		dst, tag int
		want     error
	}{
		{"negative-tag", 1, -5, core.ErrBadTag},
		{"tag-at-limit", 1, 1 << 16, core.ErrBadTag},
		{"rank-past-group", 2, 7, core.ErrBadRank},
		{"in-range", 1, 1<<16 - 1, nil},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := cluster.New(perfmodel.Default(), 4)
			w := c.DCFAWorld(4, true)
			err := w.Run(func(r *core.Rank) error {
				p := r.Proc()
				sub, err := r.CommWorld().Split(p, r.ID()%2, r.ID())
				if err != nil {
					return err
				}
				if tc.want == nil {
					out, in := r.Mem(8), r.Mem(8)
					out.Data[0] = byte(40 + r.ID())
					st, err := sub.Sendrecv(p, 1-sub.Rank(), tc.tag, core.Whole(out), 1-sub.Rank(), tc.tag, core.Whole(in))
					if err != nil {
						return err
					}
					if peer := sub.WorldRank(1 - sub.Rank()); in.Data[0] != byte(40+peer) || st.Tag != tc.tag || st.Source != 1-sub.Rank() {
						return fmt.Errorf("rank %d: got %#x status %+v", r.ID(), in.Data[0], st)
					}
					return nil
				}
				s := core.Whole(r.Mem(8))
				_, errIsend := sub.Isend(p, tc.dst, tc.tag, s)
				_, errIrecv := sub.Irecv(p, tc.dst, tc.tag, s)
				_, errRecv := sub.Recv(p, tc.dst, tc.tag, s)
				_, errSendrecv := sub.Sendrecv(p, tc.dst, tc.tag, s, tc.dst, tc.tag, s)
				for i, err := range []error{sub.Send(p, tc.dst, tc.tag, s), errIsend, errIrecv, errRecv, errSendrecv} {
					if !errors.Is(err, tc.want) {
						call := []string{"Send", "Isend", "Irecv", "Recv", "Sendrecv"}[i]
						return fmt.Errorf("%s(dst %d, tag %d) = %v, want %v", call, tc.dst, tc.tag, err, tc.want)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// collectives is what *core.Rank and *core.Comm have in common.
type collectives interface {
	Barrier(p *sim.Proc) error
	Bcast(p *sim.Proc, root int, s core.Slice) error
	Reduce(p *sim.Proc, root int, s core.Slice, op core.Op) error
	Allreduce(p *sim.Proc, s core.Slice, op core.Op) error
	Gather(p *sim.Proc, root int, s, dst core.Slice) error
	Gatherv(p *sim.Proc, root int, s, dst core.Slice, counts []int) error
	Scatter(p *sim.Proc, root int, src, recv core.Slice) error
	Scatterv(p *sim.Proc, root int, src, recv core.Slice, counts []int) error
	Allgather(p *sim.Proc, s, dst core.Slice) error
	Scan(p *sim.Proc, s core.Slice, op core.Op) error
	ReduceScatter(p *sim.Proc, src, dst core.Slice, op core.Op) error
	Alltoall(p *sim.Proc, src, dst core.Slice, blockN int) error
}

// everyCollective runs all twelve collectives once on g, a group of n
// in which this process is rank me, and checks each result against
// host arithmetic. Member i contributes the values i+1, i+2, …; elems
// sets the payload of the algorithm-selected ones. It returns every
// result buffer, concatenated.
func everyCollective(p *sim.Proc, r *core.Rank, g collectives, me, n, elems int) ([]byte, error) {
	var out []byte
	vals := func(i, k int) []float64 {
		v := make([]float64, k)
		for j := range v {
			v[j] = float64(i + 1 + j)
		}
		return v
	}
	buf := func(v []float64) core.Slice {
		b := r.Mem(8 * len(v))
		core.PutF64s(b.Data, v)
		return core.Whole(b)
	}
	check := func(what string, s core.Slice, want []float64) error {
		got := core.GetF64s(s.Bytes(), len(want))
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("%s: member %d elem %d = %v, want %v", what, me, i, got[i], want[i])
			}
		}
		out = append(out, s.Bytes()...)
		return nil
	}
	// sumTo(k)[j] = Σ_{i<k} (i+1+j).
	sumTo := func(k, width int) []float64 {
		v := make([]float64, width)
		for j := range v {
			v[j] = float64(k*(k+1)/2 + k*j)
		}
		return v
	}
	root := n - 1

	if err := g.Barrier(p); err != nil {
		return nil, err
	}
	s := buf(make([]float64, elems))
	if me == root {
		core.PutF64s(s.Bytes(), vals(root, elems))
	}
	if err := g.Bcast(p, root, s); err != nil {
		return nil, err
	}
	if err := check("bcast", s, vals(root, elems)); err != nil {
		return nil, err
	}
	s = buf(vals(me, 3))
	if err := g.Reduce(p, root, s, core.OpSumF64); err != nil {
		return nil, err
	}
	if me == root {
		if err := check("reduce", s, sumTo(n, 3)); err != nil {
			return nil, err
		}
	}
	s = buf(vals(me, elems))
	if err := g.Allreduce(p, s, core.OpSumF64); err != nil {
		return nil, err
	}
	if err := check("allreduce", s, sumTo(n, elems)); err != nil {
		return nil, err
	}
	s = buf(vals(me, 3))
	if err := g.Scan(p, s, core.OpSumF64); err != nil {
		return nil, err
	}
	if err := check("scan", s, sumTo(me+1, 3)); err != nil {
		return nil, err
	}

	// Uniform blocks of 2 values; block i of the concatenation is
	// member i's contribution.
	var concat []float64
	for i := 0; i < n; i++ {
		concat = append(concat, vals(i, 2)...)
	}
	all := buf(make([]float64, 2*n))
	if err := g.Gather(p, root, buf(vals(me, 2)), all); err != nil {
		return nil, err
	}
	if me == root {
		if err := check("gather", all, concat); err != nil {
			return nil, err
		}
	}
	all = buf(make([]float64, 2*n))
	if err := g.Allgather(p, buf(vals(me, 2)), all); err != nil {
		return nil, err
	}
	if err := check("allgather", all, concat); err != nil {
		return nil, err
	}
	one := buf(make([]float64, 2))
	if err := g.Scatter(p, root, buf(concat), one); err != nil {
		return nil, err
	}
	if err := check("scatter", one, vals(me, 2)); err != nil {
		return nil, err
	}
	// ReduceScatter: every member passes concat, so block i sums to
	// n times member i's values.
	one = buf(make([]float64, 2))
	if err := g.ReduceScatter(p, buf(concat), one, core.OpSumF64); err != nil {
		return nil, err
	}
	want := vals(me, 2)
	for j := range want {
		want[j] *= float64(n)
	}
	if err := check("reduce_scatter", one, want); err != nil {
		return nil, err
	}

	// v-forms: member i owns i values (member 0 none).
	counts := make([]int, n)
	var vconcat []float64
	for i := range counts {
		counts[i] = 8 * i
		vconcat = append(vconcat, vals(i, i)...)
	}
	all = buf(make([]float64, len(vconcat)))
	if err := g.Gatherv(p, root, buf(vals(me, me)), all, counts); err != nil {
		return nil, err
	}
	if me == root {
		if err := check("gatherv", all, vconcat); err != nil {
			return nil, err
		}
	}
	mine := buf(make([]float64, me))
	if err := g.Scatterv(p, root, buf(vconcat), mine, counts); err != nil {
		return nil, err
	}
	if err := check("scatterv", mine, vals(me, me)); err != nil {
		return nil, err
	}

	// Alltoall: member i sends the value 100·i+j to member j.
	src, dst := make([]float64, n), make([]float64, n)
	for j := range src {
		src[j] = float64(100*me + j)
		dst[j] = float64(100*j + me)
	}
	got := buf(make([]float64, n))
	if err := g.Alltoall(p, buf(src), got, 8); err != nil {
		return nil, err
	}
	return out, check("alltoall", got, dst)
}

// collPins covers every pinnable algorithm at least once.
var collPins = []struct{ allreduce, bcast, barrier, alltoall string }{
	{"naive", "binomial", "dissemination", "pairwise"},
	{"ring", "scatter-allgather", "tree", "linear"},
	{"rd", "binomial", "tree", "pairwise"},
}

// TestWorldGroupIsTheRankCollectives runs every collective under every
// pinned algorithm once through r.X and once through r.CommWorld().X on
// fresh worlds, flat and fat-tree: same event order, same sim time,
// same payloads.
func TestWorldGroupIsTheRankCollectives(t *testing.T) {
	const n = 6
	run := func(t *testing.T, topoName string, pin int, viaComm bool) (uint64, sim.Time, [][]byte) {
		plat := perfmodel.Default()
		c := cluster.NewWithTopo(plat, n, topoName)
		cfg := core.ConfigFromPlatform(plat)
		cfg.Offload = false
		cfg.EagerMax = 1024
		cfg.CollAllreduce, cfg.CollBcast = collPins[pin].allreduce, collPins[pin].bcast
		cfg.CollBarrier, cfg.CollAlltoall = collPins[pin].barrier, collPins[pin].alltoall
		w := core.NewWorld(c.Eng, plat, cfg, c.HostEnvs(n))
		out := make([][]byte, n)
		err := w.Run(func(r *core.Rank) error {
			var g collectives = r
			if viaComm {
				g = r.CommWorld()
			}
			var err error
			out[r.ID()], err = everyCollective(r.Proc(), r, g, r.ID(), n, 300)
			return err
		})
		if err != nil {
			t.Fatalf("%s pins %v viaComm=%v: %v", topoName, collPins[pin], viaComm, err)
		}
		return c.Eng.Fingerprint(), c.Eng.Now(), out
	}
	for _, topoName := range []string{"flat", "fattree4"} {
		for pin := range collPins {
			fpR, nowR, outR := run(t, topoName, pin, false)
			fpC, nowC, outC := run(t, topoName, pin, true)
			if fpR != fpC || nowR != nowC {
				t.Errorf("%s pins %v: r.X fingerprint %#x at %v, r.CommWorld().X %#x at %v",
					topoName, collPins[pin], fpR, nowR, fpC, nowC)
			}
			for i := range outR {
				if !bytes.Equal(outR[i], outC[i]) {
					t.Errorf("%s pins %v: rank %d payloads differ", topoName, collPins[pin], i)
				}
			}
		}
	}
}

// TestSplitGroupRunsEveryCollective: the odd and even halves of a
// 7-rank world each run the whole set, under every pinned algorithm,
// at the same time.
func TestSplitGroupRunsEveryCollective(t *testing.T) {
	const n = 7
	for pin := range collPins {
		plat := perfmodel.Default()
		c := cluster.New(plat, n)
		cfg := core.ConfigFromPlatform(plat)
		cfg.EagerMax = 1024
		cfg.CollAllreduce, cfg.CollBcast = collPins[pin].allreduce, collPins[pin].bcast
		cfg.CollBarrier, cfg.CollAlltoall = collPins[pin].barrier, collPins[pin].alltoall
		w := core.NewWorld(c.Eng, plat, cfg, c.DCFAEnvs(n))
		err := w.Run(func(r *core.Rank) error {
			p := r.Proc()
			sub, err := r.CommWorld().Split(p, r.ID()%2, r.ID())
			if err != nil {
				return err
			}
			_, err = everyCollective(p, r, sub, sub.Rank(), sub.Size(), 300)
			return err
		})
		if err != nil {
			t.Errorf("pins %v: %v", collPins[pin], err)
		}
	}
}
