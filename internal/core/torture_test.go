package core_test

// Seeded protocol-torture suite: randomized Send/Isend/Recv/Irecv
// traffic (including ANY_SOURCE rounds) across message sizes straddling
// the eager/rendezvous threshold, run under an active fault plan. Every
// payload is verified byte-for-byte, every request must complete, and
// the whole run — faults, recoveries, retries — must be bit-identical
// across two runs with the same seed.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/causal"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dcfa"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// tortureRNG is a splitmix64 generator for workload construction (the
// repo bans math/rand to keep runs reproducible).
type tortureRNG struct{ s uint64 }

func (g *tortureRNG) next() uint64 {
	g.s += 0x9E3779B97F4A7C15
	z := g.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (g *tortureRNG) intn(n int) int { return int(g.next() % uint64(n)) }

// tortureSizes straddle the 8 KiB eager threshold: eager, boundary,
// boundary+1 (smallest rendezvous), and a large rendezvous that crosses
// the offload-send threshold.
var tortureSizes = []int{64, 1024, 8192, 8193, 32768}

const tortureMaxSize = 32768

// tmsg is one point-to-point message of the generated workload.
type tmsg struct {
	src, dst, size, tag int
}

// tround is one bulk-synchronous round; anySrc rounds post every
// receive as MPI_ANY_SOURCE with the round's shared tag.
type tround struct {
	msgs   []tmsg
	anySrc bool
}

// torturePlanFor generates the deterministic message schedule all ranks
// share. Tags are unique per round in directed rounds; ANY_SOURCE
// rounds share one tag so a wildcard can match any of the round's
// messages but never a collective's control packet (those use negative
// tags).
func torturePlanFor(seed uint64, ranks, rounds, msgs int) []tround {
	g := tortureRNG{s: seed}
	plan := make([]tround, rounds)
	for rd := range plan {
		plan[rd].anySrc = rd%2 == 1
		for m := 0; m < msgs; m++ {
			src := g.intn(ranks)
			dst := g.intn(ranks - 1)
			if dst >= src {
				dst++
			}
			tag := rd*1000 + m
			if plan[rd].anySrc {
				tag = rd * 1000
			}
			plan[rd].msgs = append(plan[rd].msgs, tmsg{
				src: src, dst: dst, size: tortureSizes[g.intn(len(tortureSizes))], tag: tag,
			})
		}
	}
	return plan
}

// pat is the deterministic payload byte for position i of a message.
func pat(seed uint64, rd, src, size int, i int) byte {
	return byte(uint64(i)*2654435761 + seed + uint64(rd*31+src*7+size))
}

func fillPat(buf []byte, seed uint64, rd, src, size int) {
	for i := range buf {
		buf[i] = pat(seed, rd, src, size, i)
	}
}

func checkPat(buf []byte, seed uint64, rd, src, size int) error {
	for i := range buf {
		if buf[i] != pat(seed, rd, src, size, i) {
			return fmt.Errorf("payload corrupt at byte %d of %d (round %d src %d)", i, len(buf), rd, src)
		}
	}
	return nil
}

// tortureResult captures everything two same-seed runs must agree on.
type tortureResult struct {
	fp     uint64
	events int64
	now    sim.Time
	stats  core.Stats
	all    core.Stats // every field, summed over the ranks
	inj    *faults.Injector
	dirty  string // the first non-zero eager ring byte left at the end, if any
}

// runTorture executes the seeded workload on a 4-rank DCFA world under
// the given fault plan (nil = no injector) with optional telemetry.
func runTorture(t *testing.T, seed uint64, plan *faults.Plan, reg *metrics.Registry, tr *trace.Recorder) tortureResult {
	t.Helper()
	return runTortureSinks(t, seed, plan, reg, nil, tr)
}

// runTortureSinks is runTorture with the causal recorder too.
func runTortureSinks(t *testing.T, seed uint64, plan *faults.Plan, reg *metrics.Registry, rec *causal.Recorder, tr *trace.Recorder) tortureResult {
	t.Helper()
	const ranks = 4
	sched := torturePlanFor(seed, ranks, 6, 10)
	c := cluster.New(perfmodel.Default(), ranks)
	c.SetMetrics(reg)
	c.SetCausal(rec)
	inj := c.SetFaults(plan)
	w := c.DCFAWorld(ranks, true)
	w.Cfg.Trace = tr
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		me := r.ID()
		for rd, ro := range sched {
			var reqs []*core.Request
			type pendingRecv struct {
				req *core.Request
				buf core.Slice
				m   *tmsg // nil for ANY_SOURCE receives
			}
			var recvs []pendingRecv
			if ro.anySrc {
				for mi := range ro.msgs {
					if ro.msgs[mi].dst != me {
						continue
					}
					s := core.Whole(r.Mem(tortureMaxSize))
					q, err := r.Irecv(p, core.AnySource, ro.msgs[mi].tag, s)
					if err != nil {
						return err
					}
					recvs = append(recvs, pendingRecv{req: q, buf: s})
					reqs = append(reqs, q)
				}
			} else {
				for mi := range ro.msgs {
					m := &ro.msgs[mi]
					if m.dst != me {
						continue
					}
					s := core.Whole(r.Mem(m.size))
					q, err := r.Irecv(p, m.src, m.tag, s)
					if err != nil {
						return err
					}
					recvs = append(recvs, pendingRecv{req: q, buf: s, m: m})
					reqs = append(reqs, q)
				}
			}
			for mi := range ro.msgs {
				m := &ro.msgs[mi]
				if m.src != me {
					continue
				}
				s := core.Whole(r.Mem(m.size))
				fillPat(s.Bytes(), seed, rd, m.src, m.size)
				q, err := r.Isend(p, m.dst, m.tag, s)
				if err != nil {
					return err
				}
				reqs = append(reqs, q)
			}
			if err := r.WaitAll(p, reqs...); err != nil {
				return fmt.Errorf("round %d: %w", rd, err)
			}
			for _, q := range reqs {
				if !q.Done() {
					return fmt.Errorf("round %d: leaked request (WaitAll returned with it pending)", rd)
				}
			}
			// Verify every receive byte-for-byte. ANY_SOURCE receives
			// identify their message through the completion status.
			for _, pr := range recvs {
				st := pr.req.Status()
				m := pr.m
				if m == nil {
					for mi := range ro.msgs {
						cand := &ro.msgs[mi]
						if cand.dst == me && cand.src == st.Source && cand.size == st.Len {
							m = cand
							break
						}
					}
					if m == nil {
						return fmt.Errorf("round %d: ANY_SOURCE matched unknown message %+v", rd, st)
					}
				}
				if st.Source != m.src || st.Len != m.size {
					return fmt.Errorf("round %d: status %+v, want src %d len %d", rd, st, m.src, m.size)
				}
				if err := checkPat(pr.buf.Bytes()[:st.Len], seed, rd, m.src, m.size); err != nil {
					return fmt.Errorf("round %d: %w", rd, err)
				}
			}
			if err := r.Barrier(p); err != nil {
				return fmt.Errorf("round %d barrier: %w", rd, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("torture run (seed %d): %v", seed, err)
	}
	// Span hygiene: every message-lifecycle span opened during the run —
	// including ones that crossed a QP reset, WR replay or DMA-abort
	// fallback — must have been closed.
	if reg != nil {
		if open := reg.OpenSpans(); open != 0 {
			t.Fatalf("torture run (seed %d): %d spans left open", seed, open)
		}
	}
	res := tortureResult{fp: c.Eng.Fingerprint(), events: c.Eng.EventsRun(), now: c.Eng.Now(), inj: inj}
	for i := 0; i < ranks; i++ {
		if res.dirty == "" {
			res.dirty = w.Rank(i).DirtyRing()
		}
		s := w.Rank(i).Stats
		addStats(&res.all, s)
		res.stats.MsgsSent += s.MsgsSent
		res.stats.EagerSends += s.EagerSends
		res.stats.RndvSends += s.RndvSends
		res.stats.Retries += s.Retries
		res.stats.QPResets += s.QPResets
		res.stats.ReplaysDeduped += s.ReplaysDeduped
	}
	return res
}

// tallies extracts an injector's injection counts for comparison.
func tallies(i *faults.Injector) [5]int64 {
	return [5]int64{i.IBFaults, i.IBDropped, i.CmdFaults, i.DMADelayed, i.DMAAborted}
}

// tortureFaults is the active plan the suite tortures under.
func tortureFaults(seed uint64) *faults.Plan {
	p := faults.NewPlan(seed)
	p.IBError = 0.05
	p.Cmd = 0.05
	p.DMADelay = 0.1
	p.DMAAbort = 0.1
	return p
}

// tortureARElems are the per-round element counts of the allreduce
// torture: payload sizes 64 B … 32.8 KB straddle the 8 KiB eager
// threshold in both directions, so ring chunks travel eager and
// rendezvous (and cross the offload-send threshold) under faults.
var tortureARElems = []int{8, 129, 1024, 4100}

// runTortureAllreduce executes seeded ring-allreduce rounds on a
// 4-rank DCFA world under the given fault plan. Every rank checks the
// reduced vector element-wise against the host-computed sum each round
// — a replayed or deduplicated chunk that corrupted a partial
// reduction shows up as a wrong element, not just a changed schedule.
func runTortureAllreduce(t *testing.T, seed uint64, plan *faults.Plan) tortureResult {
	t.Helper()
	const ranks = 4
	fill := func(g *tortureRNG, elems int) []float64 {
		vs := make([]float64, elems)
		for i := range vs {
			vs[i] = float64(g.intn(512))
		}
		return vs
	}
	c := cluster.New(perfmodel.Default(), ranks)
	inj := c.SetFaults(plan)
	w := c.DCFAWorld(ranks, true)
	w.Cfg.CollAllreduce = "ring"
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		me := r.ID()
		for rd, elems := range tortureARElems {
			buf := r.Mem(elems * 8)
			g := tortureRNG{s: seed + uint64(rd*31+me)}
			core.PutF64s(buf.Data, fill(&g, elems))
			if err := r.Allreduce(p, core.Whole(buf), core.OpSumF64); err != nil {
				return fmt.Errorf("round %d: %w", rd, err)
			}
			want := make([]float64, elems)
			for id := 0; id < ranks; id++ {
				gg := tortureRNG{s: seed + uint64(rd*31+id)}
				for i, v := range fill(&gg, elems) {
					want[i] += v
				}
			}
			for i := range want {
				got := math.Float64frombits(binary.LittleEndian.Uint64(buf.Data[i*8:]))
				if got != want[i] {
					return fmt.Errorf("round %d: element %d = %v, want %v", rd, i, got, want[i])
				}
			}
			if err := r.Barrier(p); err != nil {
				return fmt.Errorf("round %d barrier: %w", rd, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("allreduce torture (seed %d): %v", seed, err)
	}
	res := tortureResult{fp: c.Eng.Fingerprint(), events: c.Eng.EventsRun(), now: c.Eng.Now(), inj: inj}
	for i := 0; i < ranks; i++ {
		s := w.Rank(i).Stats
		res.stats.MsgsSent += s.MsgsSent
		res.stats.EagerSends += s.EagerSends
		res.stats.RndvSends += s.RndvSends
		res.stats.Retries += s.Retries
		res.stats.QPResets += s.QPResets
		res.stats.ReplaysDeduped += s.ReplaysDeduped
	}
	return res
}

// TestTortureRingAllreduceUnderFaults: the ring allreduce — chunked
// reduce-scatter plus allgather, the schedule the thousand-rank bench
// runs — must survive IB and CMD faults on 4 DCFA ranks with balanced
// recovery ledgers, bit-identically across same-seed runs.
func TestTortureRingAllreduceUnderFaults(t *testing.T) {
	plan := func(s uint64) *faults.Plan {
		p := faults.NewPlan(s)
		p.IBError = 0.05
		// The collective issues far fewer delegation commands than the
		// point-to-point torture, so CMD faults need a higher rate to
		// fire reliably.
		p.Cmd = 0.15
		return p
	}
	a := runTortureAllreduce(t, 11, plan(11))
	b := runTortureAllreduce(t, 11, plan(11))
	if a.fp != b.fp || a.events != b.events || a.now != b.now {
		t.Errorf("same seed diverged: fp %#x/%#x events %d/%d now %v/%v",
			a.fp, b.fp, a.events, b.events, a.now, b.now)
	}
	if tallies(a.inj) != tallies(b.inj) {
		t.Errorf("fault tallies diverged: %+v vs %+v", a.inj, b.inj)
	}
	if a.stats != b.stats {
		t.Errorf("recovery stats diverged: %+v vs %+v", a.stats, b.stats)
	}

	// The plan must actually have exercised both fault layers.
	if a.inj.IBFaults == 0 || a.inj.CmdFaults == 0 {
		t.Errorf("expected IB and CMD injections, got %+v", a.inj)
	}
	// Ledger balance: every recoverable transport fault is matched by
	// exactly one replay, and IB faults force QP resets.
	if a.stats.Retries != a.inj.IBFaults {
		t.Errorf("replays %d != injected IB faults %d", a.stats.Retries, a.inj.IBFaults)
	}
	if a.inj.IBFaults > 0 && a.stats.QPResets == 0 {
		t.Error("IB faults occurred but no QP was ever reset")
	}
	// The ring chunks crossed the eager threshold in both directions.
	if a.stats.EagerSends == 0 || a.stats.RndvSends == 0 {
		t.Errorf("workload not mixed: eager=%d rndv=%d", a.stats.EagerSends, a.stats.RndvSends)
	}

	c := runTortureAllreduce(t, 12, plan(12))
	if c.fp == a.fp && c.now == a.now {
		t.Error("different seeds produced an identical run")
	}
}

// TestTortureSameSeedIsBitIdentical runs the faulted workload twice
// with one seed and requires identical fingerprints, event counts,
// virtual end times, fault tallies and recovery counters — then checks
// a different seed actually changes the schedule.
func TestTortureSameSeedIsBitIdentical(t *testing.T) {
	a := runTorture(t, 7, tortureFaults(7), nil, nil)
	b := runTorture(t, 7, tortureFaults(7), nil, nil)
	if a.fp != b.fp || a.events != b.events || a.now != b.now {
		t.Errorf("same seed diverged: fp %#x/%#x events %d/%d now %v/%v",
			a.fp, b.fp, a.events, b.events, a.now, b.now)
	}
	if tallies(a.inj) != tallies(b.inj) {
		t.Errorf("fault tallies diverged: %+v vs %+v", a.inj, b.inj)
	}
	if a.stats != b.stats {
		t.Errorf("recovery stats diverged: %+v vs %+v", a.stats, b.stats)
	}

	// The plan must actually have fired in every layer.
	if a.inj.IBFaults == 0 || a.inj.CmdFaults == 0 || a.inj.DMADelayed+a.inj.DMAAborted == 0 {
		t.Errorf("expected injections in every layer, got %+v", a.inj)
	}
	// Every recoverable transport fault is matched by exactly one
	// replay (the workload never exhausts the retry budget).
	if a.stats.Retries != a.inj.IBFaults {
		t.Errorf("replays %d != injected IB faults %d", a.stats.Retries, a.inj.IBFaults)
	}
	if a.inj.IBFaults > 0 && a.stats.QPResets == 0 {
		t.Error("IB faults occurred but no QP was ever reset")
	}
	// The workload crossed the eager threshold in both directions.
	if a.stats.EagerSends == 0 || a.stats.RndvSends == 0 {
		t.Errorf("workload not mixed: eager=%d rndv=%d", a.stats.EagerSends, a.stats.RndvSends)
	}

	c := runTorture(t, 8, tortureFaults(8), nil, nil)
	if c.fp == a.fp && c.now == a.now {
		t.Error("different seeds produced an identical run")
	}
}

// TestZeroRatePlanDoesNotPerturbSchedule: installing a fault plan whose
// rates are all zero must leave the event schedule bit-identical to a
// run with no injector at all, and tally nothing.
func TestZeroRatePlanDoesNotPerturbSchedule(t *testing.T) {
	off := runTorture(t, 7, nil, nil, nil)
	zero := runTorture(t, 7, faults.NewPlan(7), nil, nil)
	if off.fp != zero.fp || off.events != zero.events || off.now != zero.now {
		t.Errorf("zero-rate plan perturbed the schedule: fp %#x/%#x events %d/%d now %v/%v",
			off.fp, zero.fp, off.events, zero.events, off.now, zero.now)
	}
	if zero.inj.IBFaults+zero.inj.CmdFaults+zero.inj.DMADelayed+zero.inj.DMAAborted != 0 {
		t.Errorf("zero-rate plan injected: %+v", zero.inj)
	}
	if zero.stats.Retries+zero.stats.QPResets+zero.stats.ReplaysDeduped != 0 {
		t.Errorf("zero-rate plan recovered something: %+v", zero.stats)
	}
}

// TestTelemetryDoesNotPerturbFaultSchedule extends the metrics
// passivity guarantee to fault-active runs: metrics on/off and trace
// on/off must all share one fingerprint, and the fault decisions (which
// hash virtual time) must be identical.
func TestTelemetryDoesNotPerturbFaultSchedule(t *testing.T) {
	base := runTorture(t, 7, tortureFaults(7), nil, nil)
	reg := metrics.New()
	withMetrics := runTorture(t, 7, tortureFaults(7), reg, nil)
	withTrace := runTorture(t, 7, tortureFaults(7), nil, trace.New(1<<16))
	both := runTorture(t, 7, tortureFaults(7), metrics.New(), trace.New(1<<16))
	for name, r := range map[string]tortureResult{
		"metrics": withMetrics, "trace": withTrace, "metrics+trace": both,
	} {
		if r.fp != base.fp || r.events != base.events || r.now != base.now {
			t.Errorf("%s perturbed the faulted schedule: fp %#x/%#x events %d/%d now %v/%v",
				name, base.fp, r.fp, base.events, r.events, base.now, r.now)
		}
		if tallies(r.inj) != tallies(base.inj) {
			t.Errorf("%s changed fault decisions: %+v vs %+v", name, base.inj, r.inj)
		}
	}
	// The metrics counters must agree with the recovery stats.
	var retries, resets, deduped int64
	for i := 0; i < 4; i++ {
		actor := fmt.Sprintf("rank%d", i)
		retries += reg.Counter(actor, "faults.retries").Value()
		resets += reg.Counter(actor, "faults.qp-resets").Value()
		deduped += reg.Counter(actor, "faults.replays-deduped").Value()
	}
	if retries != withMetrics.stats.Retries || resets != withMetrics.stats.QPResets || deduped != withMetrics.stats.ReplaysDeduped {
		t.Errorf("metrics (%d/%d/%d) disagree with stats %+v", retries, resets, deduped, withMetrics.stats)
	}
	if reg.OpenSpans() != 0 {
		t.Errorf("%d spans left open after a faulted run", reg.OpenSpans())
	}
}

// TestCmdTimeoutErrorIsNotADeadlock: a CMD channel that never recovers
// must surface as a typed *dcfa.CmdTimeoutError — matchable with
// errors.As and distinct from the engine's *sim.DeadlockError — while a
// genuine deadlock (missing receive) still reports as DeadlockError.
func TestCmdTimeoutErrorIsNotADeadlock(t *testing.T) {
	plan := faults.NewPlan(3)
	plan.Cmd = 1.0 // every command rejected, forever
	c := cluster.New(perfmodel.Default(), 2)
	c.SetFaults(plan)
	w := c.DCFAWorld(2, true)
	err := w.Run(func(r *core.Rank) error { return nil })
	if err == nil {
		t.Fatal("run with a dead CMD channel succeeded")
	}
	var cte *dcfa.CmdTimeoutError
	if !errors.As(err, &cte) {
		t.Fatalf("error %v is not a CmdTimeoutError", err)
	}
	if cte.Tries < 2 || cte.Elapsed < faults.CmdDeadline/2 {
		t.Errorf("timeout gave up too early: %+v", cte)
	}
	var de *sim.DeadlockError
	if errors.As(err, &de) {
		t.Errorf("CMD timeout misreported as engine deadlock: %v", err)
	}

	// Control: an actual deadlock is still typed as one.
	c2 := cluster.New(perfmodel.Default(), 2)
	w2 := c2.DCFAWorld(2, true)
	err = w2.Run(func(r *core.Rank) error {
		if r.ID() == 0 {
			buf := r.Mem(64)
			_, err := r.Recv(r.Proc(), 1, 1, core.Whole(buf))
			return err
		}
		return nil // rank 1 never sends
	})
	if !errors.As(err, &de) {
		t.Fatalf("missing send reported %v, want DeadlockError", err)
	}
	if errors.As(err, &cte) {
		t.Errorf("deadlock misreported as CMD timeout: %v", err)
	}
}

// TestRingsAreZeroAfterTorture: a consumed or discarded ring slot clears
// only the header, payload and tail its packet wrote, which leaves the
// slot all zero because every write puts exactly those bytes. After the
// mixed-size torture (control packets, 64 B to 8 KiB eager payloads and,
// under the fault plan, replays) every byte of every ring is zero again.
func TestRingsAreZeroAfterTorture(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan *faults.Plan
	}{{"no faults", nil}, {"faults", tortureFaults(5)}} {
		t.Run(tc.name, func(t *testing.T) {
			res := runTorture(t, 5, tc.plan, nil, nil)
			if res.dirty != "" {
				t.Fatal(res.dirty)
			}
			if tc.plan != nil && res.stats.Retries == 0 {
				t.Error("the plan replayed nothing")
			}
		})
	}
}
