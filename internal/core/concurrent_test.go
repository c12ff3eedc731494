package core_test

// Concurrent-engine isolation. Two simulations with the
// same seed share a process but no package-level mutable state, so
// running them on real goroutines at the same time — under -race in
// CI — must yield exactly the schedule a solo run yields. A
// fingerprint mismatch here means instance state leaked to package
// level (or worse, a data race the race detector will also flag).

import (
	"testing"
)

func TestConcurrentEnginesDeterminism(t *testing.T) {
	type result struct {
		fp     uint64
		events int64
		err    error
	}

	// The raw concurrency below is the point of the test: two engines
	// must be independent under the host scheduler, so sim.Queue (which
	// serializes onto one calendar) cannot be used.

	//simlint:ignore rawgo collecting results from deliberately-parallel engines; both join before any assertion
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		//simlint:ignore rawgo the test runs two whole simulations on real goroutines on purpose: -race plus fingerprint equality is the isolation witness
		go func() {
			fp, events, _, err := runMixedWorkload()
			results <- result{fp: fp, events: events, err: err}
		}()
	}
	a, b := <-results, <-results
	for _, r := range []result{a, b} {
		if r.err != nil {
			t.Fatal(r.err)
		}
	}
	if a.fp != b.fp {
		t.Errorf("concurrent engines diverged: fingerprints %#x vs %#x", a.fp, b.fp)
	}
	if a.events != b.events {
		t.Errorf("concurrent engines diverged: %d vs %d events", a.events, b.events)
	}

	// And both must match a run with the process to itself.
	fp, events, _, err := runMixedWorkload()
	if err != nil {
		t.Fatal(err)
	}
	if a.fp != fp {
		t.Errorf("concurrent run fingerprint %#x differs from solo run %#x", a.fp, fp)
	}
	if a.events != events {
		t.Errorf("concurrent run dispatched %d events, solo run %d", a.events, events)
	}
}

// TestConcurrentEnginesScaleDeterminism re-runs the isolation witness
// at 1000 ranks: two whole thousand-rank ring-allreduce simulations on
// real goroutines must not perturb each other's schedules. A mismatch
// here is instance state leaking to package level under a load the
// 4-rank witness can't generate (lazy connect, per-pair map growth,
// WR/packet pools). -short shrinks to 96 ranks; -race skips (see
// race_on_test.go).
func TestConcurrentEnginesScaleDeterminism(t *testing.T) {
	ranks := scaleDeterminismRanks(t)
	type result struct {
		fp     uint64
		events int64
		err    error
	}
	//simlint:ignore rawgo collecting results from deliberately-parallel engines; both join before any assertion
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		//simlint:ignore rawgo two whole scale simulations on real goroutines on purpose: cross-engine isolation at 1000 ranks is the point
		go func() {
			fp, events, _, err := runScaleWorkload(ranks)
			results <- result{fp: fp, events: events, err: err}
		}()
	}
	a, b := <-results, <-results
	for _, r := range []result{a, b} {
		if r.err != nil {
			t.Fatal(r.err)
		}
	}
	if a.fp != b.fp {
		t.Errorf("concurrent scale engines diverged: fingerprints %#x vs %#x", a.fp, b.fp)
	}
	if a.events != b.events {
		t.Errorf("concurrent scale engines diverged: %d vs %d events", a.events, b.events)
	}
}
