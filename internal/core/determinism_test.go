package core_test

// Double-run determinism: the whole MPI stack — protocol selection,
// delegation, DMA and link completions — must dispatch the exact same
// event sequence on every run. The engine fingerprints each dispatched
// (time, seq, proc) tuple; two fresh runs of the same workload must
// produce identical digests.

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// mixedWorkload exercises eager and rendezvous point-to-point,
// nonblocking requests, and the collectives on 4 DCFA ranks, then
// returns the engine's event-order digest.
func mixedWorkload(t *testing.T) (uint64, int64, sim.Time) {
	t.Helper()
	fp, events, now, err := runMixedWorkload()
	if err != nil {
		t.Fatal(err)
	}
	return fp, events, now
}

// runMixedWorkload is the workload body, callable off the test
// goroutine: errors return instead of failing a *testing.T.
func runMixedWorkload() (uint64, int64, sim.Time, error) {
	const n = 4
	c := cluster.New(perfmodel.Default(), n)
	w := c.DCFAWorld(n, true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		other := (r.ID() + 1) % n
		left := (r.ID() - 1 + n) % n

		// Eager and rendezvous ring passes.
		for _, sz := range []int{512, 64 << 10} {
			sb, rb := r.Mem(sz), r.Mem(sz)
			if _, err := r.Sendrecv(p, other, sz, core.Whole(sb), left, sz, core.Whole(rb)); err != nil {
				return err
			}
		}

		// Nonblocking pair with overlapping compute.
		buf := r.Mem(8 << 10)
		q, err := r.Isend(p, other, 9, core.Whole(buf))
		if err != nil {
			return err
		}
		in := r.Mem(8 << 10)
		q2, err := r.Irecv(p, left, 9, core.Whole(in))
		if err != nil {
			return err
		}
		p.Sleep(3 * sim.Microsecond)
		if err := r.WaitAll(p, q, q2); err != nil {
			return err
		}

		// Collectives.
		v := r.Mem(8)
		core.PutF64s(v.Data, []float64{float64(r.ID())})
		if err := r.Allreduce(p, core.Whole(v), core.OpSumF64); err != nil {
			return err
		}
		return r.Barrier(p)
	})
	if err != nil {
		return 0, 0, 0, err
	}
	return c.Eng.Fingerprint(), c.Eng.EventsRun(), c.Eng.Now(), nil
}

// scaleDeterminismRanks picks the rank count for the thousand-rank
// determinism extensions: the full 1000 normally, a two-leaf fat tree
// under -short, skipped under -race (see race_on_test.go).
func scaleDeterminismRanks(t *testing.T) int {
	t.Helper()
	if raceEnabled {
		t.Skip("thousand-rank runs exceed the race step's budget; the 4-rank mixed workload covers these paths under -race")
	}
	if testing.Short() {
		return 96
	}
	return 1000
}

// runScaleWorkload is the thousand-rank extension body: a ring
// allreduce over the fat-tree fabric with lazy connect, rank 0
// verifying the reduced vector against the host-computed sum.
func runScaleWorkload(ranks int) (uint64, int64, sim.Time, error) {
	res, err := new(bench.Env).ScaleAllreduce(perfmodel.Default(), bench.ScaleConfig{
		Ranks: ranks, Elems: 1000, Seed: 7, Topo: "fattree", Algo: "ring", Verify: true,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	return res.Fingerprint, res.Events, res.SimTime, nil
}

// TestDeterminismDoubleRun runs the workload twice on fresh clusters
// and requires bit-identical schedules.
func TestDeterminismDoubleRun(t *testing.T) {
	fp1, n1, t1 := mixedWorkload(t)
	fp2, n2, t2 := mixedWorkload(t)
	if fp1 != fp2 {
		t.Errorf("event-order fingerprints differ across runs: %#x vs %#x", fp1, fp2)
	}
	if n1 != n2 {
		t.Errorf("events run differ across runs: %d vs %d", n1, n2)
	}
	if t1 != t2 {
		t.Errorf("final virtual times differ across runs: %v vs %v", t1, t2)
	}
}
