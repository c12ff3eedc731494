package core_test

import (
	"fmt"
	"testing"

	"repro/internal/causal"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/trace"
)

// runReplayFlood floods 2 ranks with one-way eager traffic through
// deliberately tiny (4-slot) rings under a high delivered-fault rate.
// Every faulted write deposits its payload and then reports an error
// CQE, so the sender replays into a slot the receiver may have already
// consumed; once the consume cursor wraps back around, the stale
// duplicate must be recognized by its psn and discarded. The torture
// suite's deep default rings almost never wrap onto a replay, so this
// is the dedicated regression for ring.discard / Stats.ReplaysDeduped.
func runReplayFlood(t *testing.T, seed uint64) (fp uint64, deduped, ibFaults, retries int64) {
	t.Helper()
	fp, all, ibFaults := runReplayFloodSinks(t, seed, nil, nil, nil)
	return fp, all.ReplaysDeduped, ibFaults, all.Retries
}

// runReplayFloodSinks is runReplayFlood with telemetry installed; it
// returns every Stats field summed over the two ranks.
func runReplayFloodSinks(t *testing.T, seed uint64, reg *metrics.Registry, rec *causal.Recorder, ring *trace.Recorder) (fp uint64, all core.Stats, ibFaults int64) {
	t.Helper()
	plan := faults.NewPlan(seed)
	plan.IBError = 0.3
	plan.IBDelivered = 1.0
	c := cluster.New(perfmodel.Default(), 2)
	c.SetMetrics(reg)
	c.SetCausal(rec)
	inj := c.SetFaults(plan)
	w := c.DCFAWorld(2, false)
	w.Cfg.Trace = ring
	w.Cfg.EagerSlots = 4
	const msgs = 200
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		if r.ID() == 0 {
			for i := 0; i < msgs; i++ {
				s := core.Whole(r.Mem(64))
				for j := range s.Bytes() {
					s.Bytes()[j] = byte(i + j)
				}
				if err := r.Send(p, 1, i, s); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			s := core.Whole(r.Mem(64))
			if _, err := r.Recv(p, 0, i, s); err != nil {
				return err
			}
			for j, b := range s.Bytes() {
				if b != byte(i+j) {
					return fmt.Errorf("msg %d corrupt at byte %d", i, j)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("replay flood (seed %d): %v", seed, err)
	}
	for i := 0; i < 2; i++ {
		addStats(&all, w.Rank(i).Stats)
	}
	return c.Eng.Fingerprint(), all, inj.IBFaults
}

// TestReplayDedupeDiscardsStaleDuplicates drives the psn-based
// duplicate discard and checks it deterministic and loss-free.
func TestReplayDedupeDiscardsStaleDuplicates(t *testing.T) {
	fp1, deduped, ibFaults, retries := runReplayFlood(t, 7)
	if deduped == 0 {
		t.Error("flood never exercised the replay-dedupe path")
	}
	if ibFaults == 0 {
		t.Error("plan injected no IB faults")
	}
	if retries != ibFaults {
		t.Errorf("retries %d, want one per injected IB fault (%d)", retries, ibFaults)
	}
	if deduped > ibFaults {
		t.Errorf("deduped %d exceeds injected faults %d", deduped, ibFaults)
	}
	fp2, deduped2, _, _ := runReplayFlood(t, 7)
	if fp1 != fp2 || deduped != deduped2 {
		t.Errorf("same seed diverged: fp %#x/%#x deduped %d/%d", fp1, fp2, deduped, deduped2)
	}
}
