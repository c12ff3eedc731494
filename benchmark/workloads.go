package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/stencil"
)

// rng is splitmix64: the benchmark's only randomness, fully determined
// by the seed flag (the program under test receives only its output).
type rng struct{ s uint64 }

func (g *rng) next() uint64 {
	g.s += 0x9E3779B97F4A7C15
	z := g.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (g *rng) intn(n int) int { return int(g.next() % uint64(n)) }

// msgID derives a message's 64-bit identity from the seed and up to
// three coordinates (iteration, index, direction).
func msgID(seed uint64, a, b, c int) uint64 {
	g := rng{s: seed ^ uint64(a)<<40 ^ uint64(b)<<16 ^ uint64(c)}
	return g.next()
}

// fillPattern fills b with the byte stream identified by id.
func fillPattern(b []byte, id uint64) {
	g := rng{s: id}
	i := 0
	for ; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], g.next())
	}
	if i < len(b) {
		var t [8]byte
		binary.LittleEndian.PutUint64(t[:], g.next())
		copy(b[i:], t[:])
	}
}

// stamp writes a message's identity into its first and last 8 bytes;
// every message is at least 16 bytes long.
func stamp(b []byte, id uint64) {
	binary.LittleEndian.PutUint64(b, id)
	binary.LittleEndian.PutUint64(b[len(b)-8:], ^id)
}

func stampOK(b []byte, id uint64) bool {
	return binary.LittleEndian.Uint64(b) == id && binary.LittleEndian.Uint64(b[len(b)-8:]) == ^id
}

// fullOK compares b byte for byte with the pattern-then-stamp a sender
// wrote on the last iteration.
func fullOK(b []byte, id uint64) bool {
	want := make([]byte, len(b))
	fillPattern(want, id)
	stamp(want, id)
	return bytes.Equal(b, want)
}

// runRep runs one rep of o.def in this process.
func runRep(o repOpts) repResult {
	if o.start.IsZero() {
		o.start = time.Now()
	}
	h := newHarness(o)
	h.begin("rep", "")
	var err error
	switch o.def.Name {
	case "pp_eager", "pp_eager_instr":
		err = runPingPong(h)
	case "bw_rndv_offload":
		err = runBandwidth(h)
	case "p2p_mixed":
		err = runMixed(h)
	case "allreduce_ring_256":
		err = runAllreduce(h)
	case "coll_mix_64x8":
		err = runCollMix(h)
	case "stencil_8x56":
		err = runStencil(h)
	default:
		err = fmt.Errorf("workload %q has no body", o.def.Name)
	}
	h.end("rep")
	if h.c == nil {
		return repResult{Workload: o.def.Name, Err: err.Error(), OpsAttempted: 1, OpsFailed: 1}
	}
	return h.result(err)
}

// runPingPong is pp_eager and pp_eager_instr: blocking Send/Recv round
// trips between two Phi ranks with reused buffers. Every message's
// head/tail stamp is checked on receipt; the last round trip carries a
// full pattern that is compared byte for byte after the timed region.
func runPingPong(h *harness) error {
	h.build()
	n, seed := h.def.MsgBytes, h.o.seed
	return h.run(func(r *core.Rank) error {
		p := r.Proc()
		me, other := r.ID(), 1-r.ID()
		sb, rb := r.Mem(n), r.Mem(n)
		fillPattern(sb.Data, msgID(seed, 0, 0, me))
		lastIn := uint64(0)
		send := func(it int, last bool) error {
			id := msgID(seed, it, 1, me)
			if last {
				fillPattern(sb.Data, id)
			}
			stamp(sb.Data, id)
			return r.Send(p, other, 1, core.Whole(sb))
		}
		recv := func(it int) error {
			if _, err := r.Recv(p, other, 1, core.Whole(rb)); err != nil {
				return err
			}
			lastIn = msgID(seed, it, 1, other)
			h.chk.check(stampOK(rb.Data, lastIn^h.chk.flip))
			return nil
		}
		return h.phases(r, func(it int, last bool) error {
			if me == 0 {
				if err := send(it, last); err != nil {
					return err
				}
				return recv(it)
			}
			if err := recv(it); err != nil {
				return err
			}
			return send(it, last)
		}, func() error {
			h.chk.check(fullOK(rb.Data, lastIn^h.chk.flip))
			return nil
		})
	})
}

// runBandwidth is bw_rndv_offload: rank 0 streams windows of Window
// rendezvous-sized Isends from pre-registered buffers through the
// offload send buffer; rank 1 receives them and returns a small ack.
func runBandwidth(h *harness) error {
	h.build()
	d, seed := h.def, h.o.seed
	return h.run(func(r *core.Rank) error {
		p := r.Proc()
		me := r.ID()
		bufs := make([]*machine.Buffer, d.Window)
		for k := range bufs {
			bufs[k] = r.Mem(d.MsgBytes)
			fillPattern(bufs[k].Data, msgID(seed, 0, k, me))
		}
		ack := r.Mem(d.AckBytes)
		reqs := make([]*core.Request, 0, d.Window)
		lastIt := 0
		// post issues message k of window it: rank 1 receives it, rank 0
		// stamps (on the last window, fully patterns) and sends it.
		post := func(it, k int, last bool) (*core.Request, error) {
			return r.Irecv(p, 0, k, core.Whole(bufs[k]))
		}
		if me == 0 {
			post = func(it, k int, last bool) (*core.Request, error) {
				id := msgID(seed, it, k, 0)
				if last {
					fillPattern(bufs[k].Data, id)
				}
				stamp(bufs[k].Data, id)
				return r.Isend(p, 1, k, core.Whole(bufs[k]))
			}
		}
		return h.phases(r, func(it int, last bool) error {
			lastIt = it
			reqs = reqs[:0]
			var postErr error
			for k := range bufs {
				q, err := post(it, k, last)
				if err != nil {
					postErr = err
					break
				}
				reqs = append(reqs, q)
			}
			// Complete what was posted even when a later post failed.
			if err := r.WaitAll(p, reqs...); err != nil {
				return err
			}
			if postErr != nil {
				return postErr
			}
			if me == 0 {
				_, err := r.Recv(p, 1, d.Window, core.Whole(ack))
				return err
			}
			for k, b := range bufs {
				h.chk.check(stampOK(b.Data, msgID(seed, it, k, 0)^h.chk.flip))
			}
			return r.Send(p, 0, d.Window, core.Whole(ack))
		}, func() error {
			if me == 1 {
				for k, b := range bufs {
					h.chk.check(fullOK(b.Data, msgID(seed, lastIt, k, 0)^h.chk.flip))
				}
			}
			return nil
		})
	})
}

// mixedMsg is one directed message of a p2p_mixed round.
type mixedMsg struct {
	src, dst, size int
	any            bool // the receive is posted with ANY_SOURCE
}

// mixedSchedule draws the seeded rounds. Sizes are dealt from a
// shuffled deck holding each size equally often, so every seed moves
// the same bytes and differs only in who talks to whom and in what
// order; one receive in AnyEvery is posted ANY_SOURCE.
func mixedSchedule(d *workloadDef, seed uint64, rounds int) [][]mixedMsg {
	g := rng{s: seed}
	deck := make([]int, 0, len(d.Sizes)*d.RoundMsgs)
	sched := make([][]mixedMsg, rounds)
	for rd := range sched {
		ro := make([]mixedMsg, d.RoundMsgs)
		for m := range ro {
			if len(deck) == 0 {
				for _, sz := range d.Sizes {
					for k := 0; k < d.RoundMsgs; k++ {
						deck = append(deck, sz)
					}
				}
				for i := len(deck) - 1; i > 0; i-- {
					j := g.intn(i + 1)
					deck[i], deck[j] = deck[j], deck[i]
				}
			}
			src := g.intn(d.Ranks)
			dst := g.intn(d.Ranks - 1)
			if dst >= src {
				dst++
			}
			ro[m] = mixedMsg{src: src, dst: dst, size: deck[len(deck)-1], any: m%d.AnyEvery == 0}
			deck = deck[:len(deck)-1]
		}
		sched[rd] = ro
	}
	return sched
}

// bufPool hands out one rank's pre-allocated buffers by size; reset
// makes every buffer available again for the next round.
type bufPool struct {
	bySize map[int][]*machine.Buffer
	used   map[int]int
}

func newBufPool(r *core.Rank, need map[int]int) *bufPool {
	bp := &bufPool{bySize: map[int][]*machine.Buffer{}, used: map[int]int{}}
	for size, n := range need { //simlint:ignore maporder each size fills its own slot; order does not matter
		for k := 0; k < n; k++ {
			bp.bySize[size] = append(bp.bySize[size], r.Mem(size))
		}
	}
	return bp
}

func (bp *bufPool) get(size int) *machine.Buffer {
	b := bp.bySize[size][bp.used[size]]
	bp.used[size]++
	return b
}

func (bp *bufPool) reset() {
	for size := range bp.used {
		bp.used[size] = 0
	}
}

// runMixed is p2p_mixed: bulk-synchronous rounds of directed
// Isend/Irecv pairs over sizes that straddle the eager/rendezvous
// switch, receives first, one Barrier per round.
func runMixed(h *harness) error {
	h.build()
	d, seed := h.def, h.o.seed
	sched := mixedSchedule(d, seed, h.it.Warmup+h.it.Timed)
	return h.run(func(r *core.Rank) error {
		p := r.Proc()
		me := r.ID()
		// Size each pool to the busiest round this rank ever sees.
		needS, needR := map[int]int{}, map[int]int{}
		for _, ro := range sched {
			cs, cr := map[int]int{}, map[int]int{}
			for _, m := range ro {
				if m.src == me {
					cs[m.size]++
				}
				if m.dst == me {
					cr[m.size]++
				}
			}
			for _, sz := range d.Sizes {
				needS[sz] = max(needS[sz], cs[sz])
				needR[sz] = max(needR[sz], cr[sz])
			}
		}
		sendPool, recvPool := newBufPool(r, needS), newBufPool(r, needR)
		type posted struct {
			q   *core.Request
			buf *machine.Buffer
			m   int
		}
		var reqs []*core.Request
		var recvs []posted
		var lastRecvs []posted
		lastIt := 0
		return h.phases(r, func(it int, last bool) error {
			ro := sched[it]
			sendPool.reset()
			recvPool.reset()
			reqs, recvs = reqs[:0], recvs[:0]
			var postErr error
			for mi, m := range ro {
				if m.dst != me {
					continue
				}
				src := m.src
				if m.any {
					src = core.AnySource
				}
				b := recvPool.get(m.size)
				q, err := r.Irecv(p, src, mi, core.Whole(b))
				if err != nil {
					postErr = err
					break
				}
				reqs = append(reqs, q)
				recvs = append(recvs, posted{q: q, buf: b, m: mi})
			}
			if postErr == nil {
				for mi, m := range ro {
					if m.src != me {
						continue
					}
					b := sendPool.get(m.size)
					id := msgID(seed, it, mi, 0)
					if last {
						fillPattern(b.Data, id)
					}
					stamp(b.Data, id)
					q, err := r.Isend(p, m.dst, mi, core.Whole(b))
					if err != nil {
						postErr = err
						break
					}
					reqs = append(reqs, q)
				}
			}
			// Complete what was posted even when a later post failed:
			// abandoning an issued Irecv would leak its pinned buffer.
			if err := r.WaitAll(p, reqs...); err != nil {
				return err
			}
			if postErr != nil {
				return postErr
			}
			for _, rc := range recvs {
				m, st := ro[rc.m], rc.q.Status()
				ok := st.Source == m.src && st.Len == m.size && stampOK(rc.buf.Data, msgID(seed, it, rc.m, 0)^h.chk.flip)
				h.chk.check(ok)
			}
			if last {
				lastIt = it
				lastRecvs = append(lastRecvs[:0], recvs...)
			}
			return r.Barrier(p)
		}, func() error {
			for _, rc := range lastRecvs {
				h.chk.check(fullOK(rc.buf.Data, msgID(seed, lastIt, rc.m, 0)^h.chk.flip))
			}
			return nil
		})
	})
}

// contribution is the integer-valued f64 rank id adds at element i of
// collective call key: small integers keep every reduction order exact,
// so the host-side sum is the one right answer for any algorithm.
func contribution(key uint64, id, i int) float64 {
	return float64((key + uint64(id)*131 + uint64(i)*31) % 1024)
}

// expectedSum is the host-arithmetic oracle for an allreduce of elems
// elements over ranks ranks.
func expectedSum(key uint64, ranks, elems int) []float64 {
	want := make([]float64, elems)
	for id := 0; id < ranks; id++ {
		for i := range want {
			want[i] += contribution(key, id, i)
		}
	}
	return want
}

func fillContribution(b []byte, key uint64, id, elems int) {
	for i := 0; i < elems; i++ {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(contribution(key, id, i)))
	}
}

func sumOK(b []byte, want []float64, flip uint64) bool {
	for i, w := range want {
		if binary.LittleEndian.Uint64(b[i*8:]) != math.Float64bits(w)^flip {
			return false
		}
	}
	return true
}

// runAllreduce is allreduce_ring_256: BENCH_9's scale configuration at
// 256 host-verbs ranks. The warm-up allreduce performs every lazy
// connect; every rank checks every element of every result.
func runAllreduce(h *harness) error {
	h.build()
	d := h.def
	total := h.it.Warmup + h.it.Timed
	want := make([][]float64, total)
	for it := range want {
		want[it] = expectedSum(msgID(h.o.seed, it, 0, 0), h.ranks, d.Elems)
	}
	return h.run(func(r *core.Rank) error {
		p := r.Proc()
		buf := r.Mem(d.Elems * 8)
		return h.phases(r, func(it int, last bool) error {
			fillContribution(buf.Data, msgID(h.o.seed, it, 0, 0), r.ID(), d.Elems)
			if err := r.Allreduce(p, core.Whole(buf), core.OpSumF64); err != nil {
				return err
			}
			h.chk.check(sumOK(buf.Data, want[it], h.chk.flip))
			return nil
		}, nil)
	})
}

// runCollMix is coll_mix_64x8: 64 Phi ranks packed 8 per node run a
// fixed sequence of collectives per iteration under automatic algorithm
// selection; every rank checks every result against host arithmetic.
func runCollMix(h *harness) error {
	h.build()
	d, seed := h.def, h.o.seed
	n := h.ranks
	total := h.it.Warmup + h.it.Timed
	wantSmall := make([][]float64, total)
	wantLarge := make([][]float64, total)
	for it := 0; it < total; it++ {
		wantSmall[it] = expectedSum(msgID(seed, it, 1, 0), n, d.SmallElems)
		wantLarge[it] = expectedSum(msgID(seed, it, 2, 0), n, d.LargeElems)
	}
	return h.run(func(r *core.Rank) error {
		p := r.Proc()
		me := r.ID()
		small, large := r.Mem(d.SmallElems*8), r.Mem(d.LargeElems*8)
		bc := r.Mem(d.BcastBytes)
		a2aSrc, a2aDst := r.Mem(n*d.A2ABlock), r.Mem(n*d.A2ABlock)
		return h.phases(r, func(it int, last bool) error {
			if err := r.Barrier(p); err != nil {
				return err
			}
			fillContribution(small.Data, msgID(seed, it, 1, 0), me, d.SmallElems)
			if err := r.Allreduce(p, core.Whole(small), core.OpSumF64); err != nil {
				return err
			}
			h.chk.check(sumOK(small.Data, wantSmall[it], h.chk.flip))

			fillContribution(large.Data, msgID(seed, it, 2, 0), me, d.LargeElems)
			if err := r.Allreduce(p, core.Whole(large), core.OpSumF64); err != nil {
				return err
			}
			h.chk.check(sumOK(large.Data, wantLarge[it], h.chk.flip))

			root, bid := it%n, msgID(seed, it, 3, 0)
			if me == root {
				fillPattern(bc.Data, bid)
				stamp(bc.Data, bid)
			}
			if err := r.Bcast(p, root, core.Whole(bc)); err != nil {
				return err
			}
			h.chk.check(fullOK(bc.Data, bid^h.chk.flip))

			for j := 0; j < n; j++ {
				blk := a2aSrc.Data[j*d.A2ABlock : (j+1)*d.A2ABlock]
				id := msgID(seed, it, 4+me, j)
				fillPattern(blk, id)
				stamp(blk, id)
			}
			if err := r.Alltoall(p, core.Whole(a2aSrc), core.Whole(a2aDst), d.A2ABlock); err != nil {
				return err
			}
			ok := true
			for j := 0; j < n; j++ {
				ok = ok && fullOK(a2aDst.Data[j*d.A2ABlock:(j+1)*d.A2ABlock], msgID(seed, it, 4+j, me)^h.chk.flip)
			}
			h.chk.check(ok)
			return nil
		}, nil)
	})
}

// runStencil is stencil_8x56: the paper's §V-C application through
// stencil.RunWorld. RunWorld owns a whole world run, so the timed region
// is the call itself (bootstrap, iterations, checksum gather) and the
// simulated time is the loop time it reports. The warm-up is the same
// program for a few iterations on a world of its own: it grows the heap
// to the grids' size before timing, and it gives setup_s something to
// measure besides 2 ms of process start. The checksum is checked against
// the pinned golden value at full scale and against the serial reference
// at tiny scale.
func runStencil(h *harness) error {
	h.build()
	pr := stencil.Params{N: h.def.StencilN, Iters: h.it.Timed, Procs: h.ranks, Threads: h.def.Threads}
	want := h.def.GoldenChecksum
	if h.o.scale == scaleTiny {
		pr.N = h.def.TinyN
		want = stencil.ReferenceChecksum(stencil.Reference(pr), pr)
	}
	h.begin("run", "rep")
	h.begin("warmup", "run")
	warm := pr
	warm.Iters = h.it.Warmup
	_, ww := h.newWorld(false)
	if _, err := stencil.RunWorld(ww, warm); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	h.startTimed(false)
	res, err := stencil.RunWorld(h.w, pr)
	h.endTimed()
	h.simTimed = res.Total
	if err == nil {
		h.chk.check(math.Float64bits(res.Checksum) == math.Float64bits(want)^h.chk.flip)
		if h.chk.failed > 0 {
			fmt.Fprintf(logw, "stencil checksum %v (%#x), want %v\n", res.Checksum, math.Float64bits(res.Checksum), want)
		}
	}
	h.end("verify")
	h.end("run")
	return err
}
