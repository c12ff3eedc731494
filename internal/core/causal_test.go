package core_test

// Integration tests for the causal event stream and span hygiene: a
// clean run must produce a consistent happens-before graph, and fault
// recovery — retry exhaustion and DMA-abort fallback — must close
// every message-lifecycle span it touches.

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/causal"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// causalWorld builds a 2-rank DCFA world with metrics, causal
// recording, and an optional fault plan attached.
func causalWorld(plan *faults.Plan) (*core.World, *metrics.Registry, *causal.Recorder) {
	c := cluster.New(perfmodel.Default(), 2)
	reg := metrics.New()
	rec := causal.New()
	c.SetMetrics(reg)
	c.SetCausal(rec)
	if plan != nil {
		c.SetFaults(plan)
	}
	return c.DCFAWorld(2, true), reg, rec
}

func TestCausalStreamConsistentOnCleanRun(t *testing.T) {
	// One eager and one rendezvous exchange: the recorded stream must
	// build into a graph with zero inconsistencies and matched messages
	// carrying the resolved protocols.
	w, reg, rec := causalWorld(nil)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		other := 1 - r.ID()
		small := r.Mem(512)
		big := r.Mem(256 << 10)
		if r.ID() == 0 {
			if err := r.Send(p, other, 1, core.Whole(small)); err != nil {
				return err
			}
			return r.Send(p, other, 2, core.Whole(big))
		}
		if _, err := r.Recv(p, other, 1, core.Whole(small)); err != nil {
			return err
		}
		_, err := r.Recv(p, other, 2, core.Whole(big))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("no causal events recorded")
	}
	g := causal.Build(rec.Events(), 0)
	if issues := g.Check(); len(issues) != 0 {
		t.Fatalf("clean run produced graph inconsistencies: %v", issues)
	}
	protos := map[uint8]int{}
	for _, m := range g.Messages {
		protos[m.Proto]++
	}
	if protos[causal.ProtoEager] == 0 {
		t.Error("no eager message in the graph")
	}
	if protos[causal.ProtoSenderRzv]+protos[causal.ProtoRecvRzv]+protos[causal.ProtoSimulRzv] == 0 {
		t.Error("no rendezvous message in the graph")
	}
	if open := reg.OpenSpans(); open != 0 {
		t.Errorf("%d spans left open after a clean run", open)
	}
}

func TestRetryExhaustionClosesSpans(t *testing.T) {
	// Every WR errors and is never delivered, with a single replay
	// allowed: the rendezvous send must fail with a TransportError
	// rather than hang, and its lifecycle span must be closed. Rank 1
	// posts nothing, so no span is stranded on the peer either.
	plan := faults.NewPlan(3)
	plan.IBError = 1.0
	plan.IBDelivered = 0
	plan.MaxSendRetries = 1
	w, reg, rec := causalWorld(plan)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		if r.ID() != 0 {
			return nil
		}
		buf := r.Mem(256 << 10)
		return r.Send(p, 1, 1, core.Whole(buf))
	})
	if err == nil {
		t.Fatal("send succeeded despite every WR failing")
	}
	var te *core.TransportError
	if !errors.As(err, &te) {
		t.Fatalf("got %v, want a TransportError", err)
	}
	if open := reg.OpenSpans(); open != 0 {
		for _, s := range reg.Spans() {
			if !s.Ended {
				t.Errorf("span %s/%s left open", s.Actor, s.Name)
			}
		}
		t.Fatalf("%d spans left open after retry exhaustion", open)
	}
	// The recovery attempts must be visible in the causal stream.
	kinds := map[causal.Kind]int{}
	for _, e := range rec.Events() {
		kinds[e.Kind]++
	}
	if kinds[causal.EvQPReset] == 0 || kinds[causal.EvReplay] == 0 {
		t.Errorf("recovery not recorded: %d qp-resets, %d replays",
			kinds[causal.EvQPReset], kinds[causal.EvReplay])
	}
}

func TestFaultPoisonedRankFailsProbeAndWaitany(t *testing.T) {
	// As above, but the rank blocks in Probe or Waitany while its RTS —
	// a control packet, owned by no request — runs out of replays. That
	// poisons the rank, and every blocking call must then return the
	// TransportError Wait returns, not wait for the deadlock detector.
	cases := []struct {
		name  string
		block func(r *core.Rank, q *core.Request) error
	}{
		{"probe", func(r *core.Rank, q *core.Request) error {
			_, err := r.Probe(r.Proc(), 1, 1) // rank 1 sends nothing
			return err
		}},
		{"waitany", func(r *core.Rank, q *core.Request) error {
			i, _, err := r.Waitany(r.Proc(), q)
			if i != 0 {
				return fmt.Errorf("Waitany returned index %d", i)
			}
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := faults.NewPlan(3)
			plan.IBError = 1.0
			plan.IBDelivered = 0
			plan.MaxSendRetries = 1
			w, reg, _ := causalWorld(plan)
			err := w.Run(func(r *core.Rank) error {
				p := r.Proc()
				if r.ID() != 0 {
					return nil
				}
				q, err := r.Isend(p, 1, 1, core.Whole(r.Mem(256<<10)))
				if err != nil {
					return err
				}
				var te *core.TransportError
				if err := tc.block(r, q); !errors.As(err, &te) {
					return fmt.Errorf("got %v, want a TransportError", err)
				}
				if p.Now() > sim.Time(10*sim.Millisecond) {
					return fmt.Errorf("gave up only at %v", p.Now())
				}
				// The send fails the same way; waiting on it closes its span.
				if _, err := r.Wait(p, q); !errors.As(err, &te) {
					return fmt.Errorf("Wait got %v, want a TransportError", err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if open := reg.OpenSpans(); open != 0 {
				t.Errorf("%d spans left open on a poisoned rank", open)
			}
		})
	}
}

func TestDMAAbortFallbackClosesSpans(t *testing.T) {
	// Every offload staging DMA aborts: the send must fall back to the
	// direct path, deliver intact data, record the fallback, and leave
	// no span open.
	plan := faults.NewPlan(5)
	plan.DMAAbort = 1.0
	w, reg, rec := causalWorld(plan)
	const n = 1 << 20
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		buf := r.Mem(n)
		if r.ID() == 0 {
			fill(buf.Data, 9)
			return r.Send(p, 1, 1, core.Whole(buf))
		}
		if _, err := r.Recv(p, 0, 1, core.Whole(buf)); err != nil {
			return err
		}
		want := make([]byte, n)
		fill(want, 9)
		for i := range want {
			if buf.Data[i] != want[i] {
				return errors.New("fallback path corrupted data")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if open := reg.OpenSpans(); open != 0 {
		t.Errorf("%d spans left open after DMA-abort fallback", open)
	}
	sawFallback := false
	for _, e := range rec.Events() {
		if e.Kind == causal.EvFallback {
			sawFallback = true
			break
		}
	}
	if !sawFallback {
		t.Error("DMA-abort fallback not recorded in the causal stream")
	}
}
