package core_test

// Seeded protocol-torture suite: bench.Torture's randomized
// Isend/Irecv traffic (including ANY_SOURCE rounds) across message
// sizes straddling the eager/rendezvous threshold, run under an active
// fault plan. Every payload is verified byte-for-byte, every request
// must complete, and the whole run — faults, recoveries, retries — must
// be bit-identical across two runs with the same seed.

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/bench"
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

// tortureResult captures everything two same-seed runs must agree on.
type tortureResult struct {
	fp     uint64
	events int64
	now    sim.Time
	stats  core.Stats
	all    core.Stats // every field, summed over the ranks
	inj    *faults.Injector
	dirty  string // the first non-zero eager ring byte left at the end, if any
	stray  string // the first ring slot left holding more than a stale copy, if any
	held   string // the first protocol state a rank still holds, if any
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
	c := cluster.New(perfmodel.Default(), ranks)
	c.SetMetrics(reg)
	c.SetCausal(rec)
	inj := c.SetFaults(plan)
	w := c.DCFAWorld(ranks, true)
	w.Cfg.Trace = tr
	// The ring check below reads the rings as the run left them.
	if err := w.RunKeepingRings(bench.Torture(seed, ranks, 6, 10)); err != nil {
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
	return tortureResultOf(c, w, inj)
}

// tortureResultOf reads what a finished torture run leaves behind: the
// schedule's shape, the fault tallies, the ranks' stats and their rings.
func tortureResultOf(c *cluster.Cluster, w *core.World, inj *faults.Injector) tortureResult {
	res := tortureResult{fp: c.Eng.Fingerprint(), events: c.Eng.EventsRun(), now: c.Eng.Now(), inj: inj}
	for i := 0; i < w.Size(); i++ {
		res.dirty = cmp.Or(res.dirty, w.Rank(i).DirtyRing())
		res.stray = cmp.Or(res.stray, w.Rank(i).StrayPacket())
		res.held = cmp.Or(res.held, w.Rank(i).HeldState())
		s := w.Rank(i).Stats
		addStats(&res.all, s)
		res.stats.MsgsSent += s.MsgsSent
		res.stats.EagerSends += s.EagerSends
		res.stats.RndvSends += s.RndvSends
		res.stats.Retries += s.Retries
		res.stats.QPResets += s.QPResets
		res.stats.ReplaysDeduped += s.ReplaysDeduped
		res.stats.FlushReposts += s.FlushReposts
	}
	return res
}

// TestDirtyRingSeesAPlantedByte: the torture's ring check is live. A
// byte a rank plants in its ring during the run is still there for
// DirtyRing after RunKeepingRings; after Run, which gives the reserved
// pages back, the same ring reads all zero on Linux.
func TestDirtyRingSeesAPlantedByte(t *testing.T) {
	for _, keep := range []bool{true, false} {
		c := cluster.New(perfmodel.Default(), 2)
		w := c.DCFAWorld(2, true)
		body := func(r *core.Rank) error {
			s := core.Whole(r.Mem(8))
			if r.ID() == 0 {
				return r.Send(r.Proc(), 1, 1, s)
			}
			if _, err := r.Recv(r.Proc(), 0, 1, s); err != nil {
				return err
			}
			r.PlantRingByte(0)
			return nil
		}
		run := w.Run
		if keep {
			run = w.RunKeepingRings
		}
		if err := run(body); err != nil {
			t.Fatal(err)
		}
		dirty := w.Rank(1).DirtyRing()
		switch {
		case keep && dirty == "":
			t.Error("DirtyRing missed a byte planted during the run")
		case !keep && runtime.GOOS == "linux" && dirty != "":
			t.Errorf("Run left a ring's pages in place: %s", dirty)
		}
	}
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
	fill := func(rd, id, elems int) []float64 {
		g := sim.NewSplitMix(seed + uint64(rd*31+id))
		vs := make([]float64, elems)
		for i := range vs {
			vs[i] = float64(g.Intn(512))
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
			core.PutF64s(buf.Data, fill(rd, me, elems))
			if err := r.Allreduce(p, core.Whole(buf), core.OpSumF64); err != nil {
				return fmt.Errorf("round %d: %w", rd, err)
			}
			want := make([]float64, elems)
			for id := 0; id < ranks; id++ {
				for i, v := range fill(rd, id, elems) {
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
	return tortureResultOf(c, w, inj)
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
	// A fault errors its QP with WRs still behind it, which the error
	// flushes and recovery reposts, apart from the replays.
	if a.stats.FlushReposts+c.stats.FlushReposts == 0 {
		t.Error("no flushed WR was reposted under either seed")
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
	var retries, resets, deduped, flushed int64
	for i := 0; i < 4; i++ {
		actor := fmt.Sprintf("rank%d", i)
		retries += reg.Counter(actor, "faults.retries").Value()
		resets += reg.Counter(actor, "faults.qp-resets").Value()
		deduped += reg.Counter(actor, "faults.replays-deduped").Value()
		flushed += reg.Counter(actor, "faults.flush-reposts").Value()
	}
	if retries != withMetrics.stats.Retries || resets != withMetrics.stats.QPResets || deduped != withMetrics.stats.ReplaysDeduped || flushed != withMetrics.stats.FlushReposts {
		t.Errorf("metrics (%d/%d/%d/%d) disagree with stats %+v", retries, resets, deduped, flushed, withMetrics.stats)
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
// clean mixed-size torture (control packets, 64 B to 8 KiB eager
// payloads) every byte of every ring is zero again. Under a fault plan a
// WRITE faulted as delivered lands, is consumed, and is replayed into
// its old slot behind the cursor, where it stays until the cursor comes
// back to it: over 64 plan seeds every non-zero slot must hold such a
// stale copy (psn below the pair's recvPSN, nothing past its tail) and
// nothing else.
func TestRingsAreZeroAfterTorture(t *testing.T) {
	t.Run("no faults", func(t *testing.T) {
		if res := runTorture(t, 5, nil, nil, nil); res.dirty != "" {
			t.Fatal(res.dirty)
		}
	})
	t.Run("faults", func(t *testing.T) {
		var retries, dirty int64
		for seed := uint64(1); seed <= 64; seed++ {
			res := runTorture(t, 5, tortureFaults(seed), nil, nil)
			if res.stray != "" {
				t.Errorf("plan seed %d: %s", seed, res.stray)
			}
			if res.dirty != "" {
				dirty++
			}
			retries += res.stats.Retries
		}
		if retries == 0 {
			t.Error("the plans replayed nothing")
		}
		t.Logf("%d of 64 faulted runs left stale copies in their rings", dirty)
	})
}

// TestStrayPacketSeesAPlantedPacket: the faulted ring check is live. A
// stale copy planted behind the cursor passes it; a packet the receiver
// has not consumed yet (psn at recvPSN) fails it, and so does a stale
// copy with a byte written past its tail.
func TestStrayPacketSeesAPlantedPacket(t *testing.T) {
	for _, tc := range []struct {
		name     string
		offset   int
		pastTail bool
		stray    bool
	}{{"stale copy", -1, false, false}, {"unconsumed packet", 0, false, true}, {"byte past the tail", -1, true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			c := cluster.New(perfmodel.Default(), 2)
			w := c.DCFAWorld(2, true)
			err := w.RunKeepingRings(func(r *core.Rank) error {
				s := core.Whole(r.Mem(8))
				if r.ID() == 0 {
					return r.Send(r.Proc(), 1, 1, s)
				}
				if _, err := r.Recv(r.Proc(), 0, 1, s); err != nil {
					return err
				}
				r.PlantRingPacket(0, tc.offset, tc.pastTail)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := w.Rank(1).StrayPacket(); (got != "") != tc.stray {
				t.Errorf("StrayPacket() = %q, want a stray: %v", got, tc.stray)
			}
		})
	}
}

// TestCleanExitHoldsNoProtocolState: a torture run that ends without an
// error leaves every rank holding no protocol state — no posted,
// deferred or unexpected receive, no early RTR, no send or control
// packet waiting, no work request in flight — with and without faults.
func TestCleanExitHoldsNoProtocolState(t *testing.T) {
	for seed := uint64(1); seed <= 100; seed++ {
		for _, plan := range []*faults.Plan{nil, tortureFaults(seed)} {
			if res := runTorture(t, seed, plan, nil, nil); res.held != "" {
				t.Errorf("seed %d (faults %v): %s", seed, plan != nil, res.held)
			}
		}
	}
}
