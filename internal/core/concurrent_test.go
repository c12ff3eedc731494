package core_test

// Concurrent-engine isolation. Two simulations with the
// same seed share a process but no package-level mutable state, so
// running them on real goroutines at the same time — under -race in
// CI — must yield exactly the schedule a solo run yields. A
// fingerprint mismatch here means instance state leaked to package
// level (or worse, a data race the race detector will also flag).

import (
	"testing"

	"repro/internal/sim"
)

// assertIsolated runs the workload once with the process to itself,
// then twice at the same time on real goroutines, and requires all
// three runs to agree on fingerprint, event count and virtual end
// time. Solo-then-pair asserts two properties at once: state carried
// over from a finished run does not reach the next one, and engines
// running side by side do not reach each other.
func assertIsolated(t *testing.T, run func() (uint64, int64, sim.Time, error)) {
	t.Helper()
	type result struct {
		fp     uint64
		events int64
		end    sim.Time
		err    error
	}
	solo := result{}
	solo.fp, solo.events, solo.end, solo.err = run()
	if solo.err != nil {
		t.Fatal(solo.err)
	}
	t.Logf("solo: fp %#x, %d events, end %v", solo.fp, solo.events, solo.end)

	// The raw concurrency below is the point of the test: two engines
	// must be independent under the host scheduler, so sim.Queue (which
	// serializes onto one calendar) cannot be used.

	// Both engines report here and join before any assertion.
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		// Two whole simulations on real goroutines, on purpose: -race
		// plus fingerprint equality is the isolation witness.
		go func() {
			var r result
			r.fp, r.events, r.end, r.err = run()
			results <- r
		}()
	}
	for _, r := range []result{<-results, <-results} {
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.fp != solo.fp {
			t.Errorf("concurrent run fingerprint %#x differs from solo run %#x", r.fp, solo.fp)
		}
		if r.events != solo.events {
			t.Errorf("concurrent run dispatched %d events, solo run %d", r.events, solo.events)
		}
		if r.end != solo.end {
			t.Errorf("concurrent run ended at %v, solo run at %v", r.end, solo.end)
		}
	}
}

func TestConcurrentEnginesDeterminism(t *testing.T) {
	assertIsolated(t, runMixedWorkload)
}

// TestConcurrentEnginesScaleDeterminism is the same witness at 1000
// ranks, and tier-1's only flagship-scale determinism gate: one solo
// thousand-rank ring allreduce, then two side by side — three runs
// assert both what a sequential double run asserts (nothing carries
// over from run to run) and cross-engine isolation under a load the
// 4-rank witness can't generate (lazy connect, per-pair map growth,
// WR/packet pools). -short shrinks to 96 ranks; -race skips (see
// race_on_test.go).
func TestConcurrentEnginesScaleDeterminism(t *testing.T) {
	ranks := scaleDeterminismRanks(t)
	assertIsolated(t, func() (uint64, int64, sim.Time, error) { return runScaleWorkload(ranks) })
}
