package core_test

// Protocol observability: the trace recorder proves which §IV-B3
// protocol each exchange actually took.

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// tracedPair builds a 2-rank DCFA world with tracing enabled.
func tracedPair(offload bool) (*core.World, *trace.Recorder) {
	plat := perfmodel.Default()
	c := cluster.New(plat, 2)
	cfg := core.ConfigFromPlatform(plat)
	cfg.Offload = offload
	tr := trace.New(0)
	cfg.Trace = tr
	return core.NewWorld(c.Eng, plat, cfg, c.DCFAEnvs(2)), tr
}

// oneTransfer runs a single n-byte send with the given relative delays.
func oneTransfer(t *testing.T, w *core.World, n int, sd, rd sim.Duration) {
	t.Helper()
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		buf := r.Mem(n)
		if err := r.Barrier(p); err != nil {
			return err
		}
		if r.ID() == 0 {
			p.Sleep(sd)
			return r.Send(p, 1, 9, core.Whole(buf))
		}
		p.Sleep(rd)
		_, err := r.Recv(p, 0, 9, core.Whole(buf))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTraceEagerProtocol(t *testing.T) {
	w, tr := tracedPair(true)
	oneTransfer(t, w, 512, 0, 0)
	if tr.Count("eager-send") == 0 {
		t.Fatalf("no eager-send traced; summary: %s", tr.Summary())
	}
	if tr.Count("rts-send") != 0 || tr.Count("rdma-read") != 0 {
		t.Fatalf("small message used rendezvous: %s", tr.Summary())
	}
}

func TestTraceCountsCreditStarvedEagerSends(t *testing.T) {
	// A four-slot ring and a receiver that sleeps through 64 sends: all
	// but the first few queue for credit and are posted by progress as
	// the receiver drains. Every one of them is an eager-send.
	plat := perfmodel.Default()
	c := cluster.New(plat, 2)
	cfg := core.ConfigFromPlatform(plat)
	cfg.EagerSlots = 4
	tr := trace.New(0)
	cfg.Trace = tr
	w := core.NewWorld(c.Eng, plat, cfg, c.DCFAEnvs(2))
	const msgs = 64
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		buf := r.Mem(256)
		if r.ID() == 0 {
			reqs := make([]*core.Request, msgs)
			for i := range reqs {
				var err error
				if reqs[i], err = r.Isend(p, 1, i, core.Whole(buf)); err != nil {
					return err
				}
			}
			return r.WaitAll(p, reqs...)
		}
		p.Sleep(5 * sim.Millisecond)
		for i := 0; i < msgs; i++ {
			if _, err := r.Recv(p, 0, i, core.Whole(buf)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := w.Rank(0).Stats.EagerSends
	if sent != msgs || int64(tr.Count("eager-send")) != sent {
		t.Fatalf("%d eager sends, %d traced: %s", sent, tr.Count("eager-send"), tr.Summary())
	}
}

func TestTraceSenderFirstUsesRDMARead(t *testing.T) {
	w, tr := tracedPair(false)
	oneTransfer(t, w, 64<<10, 0, 400*sim.Microsecond)
	if tr.Count("rts-send") == 0 {
		t.Fatalf("no RTS traced: %s", tr.Summary())
	}
	if tr.Count("rdma-read") == 0 {
		t.Fatalf("sender-first did not RDMA-read: %s", tr.Summary())
	}
	if tr.Count("rdma-write") != 0 {
		t.Fatalf("sender-first used a write: %s", tr.Summary())
	}
}

func TestTraceReceiverFirstUsesRDMAWrite(t *testing.T) {
	w, tr := tracedPair(false)
	oneTransfer(t, w, 64<<10, 400*sim.Microsecond, 0)
	if tr.Count("rtr-send") == 0 {
		t.Fatalf("no RTR traced: %s", tr.Summary())
	}
	if tr.Count("recv-first") == 0 || tr.Count("rdma-write") == 0 {
		t.Fatalf("receiver-first did not RDMA-write: %s", tr.Summary())
	}
	if tr.Count("rdma-read") != 0 {
		t.Fatalf("receiver-first used a read: %s", tr.Summary())
	}
}

func TestTraceSimultaneousDropsRTR(t *testing.T) {
	w, tr := tracedPair(false)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		const n = 64 << 10
		sb := r.Mem(n)
		rb := r.Mem(n)
		other := 1 - r.ID()
		if err := r.Barrier(p); err != nil {
			return err
		}
		_, err := r.Sendrecv(p, other, 1, core.Whole(sb), other, 1, core.Whole(rb))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both directions were simultaneous: RTS and RTR crossed, the
	// senders disregarded the RTRs and the receivers read.
	if tr.Count("simultaneous-rtr-drop") == 0 {
		t.Fatalf("no simultaneous drop traced: %s", tr.Summary())
	}
	if tr.Count("rdma-read") == 0 {
		t.Fatalf("simultaneous case did not read: %s", tr.Summary())
	}
}

func TestTraceOffloadSyncOnLargeSends(t *testing.T) {
	w, tr := tracedPair(true)
	oneTransfer(t, w, 1<<20, 0, 0)
	if tr.Count("offload-sync") == 0 {
		t.Fatalf("large send did not stage through the bounce buffer: %s", tr.Summary())
	}
}

func TestTraceMispredictDropsStaleRTR(t *testing.T) {
	w, tr := tracedPair(true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		if r.ID() == 0 {
			small := r.Mem(256)
			if err := r.Barrier(p); err != nil {
				return err
			}
			p.Sleep(300 * sim.Microsecond)
			if err := r.Send(p, 1, 1, core.Whole(small)); err != nil {
				return err
			}
			return r.Barrier(p)
		}
		big := r.Mem(64 << 10)
		if err := r.Barrier(p); err != nil {
			return err
		}
		if _, err := r.Recv(p, 0, 1, core.Whole(big)); err != nil {
			return err
		}
		return r.Barrier(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Count("mispredict-rtr-drop") == 0 {
		t.Fatalf("stale RTR was not dropped: %s", tr.Summary())
	}
}

// TestStaleRTRIsDroppedOnArrival: a small send and a large receive cross
// — the receiver predicts rendezvous and sends an RTR, the sender has
// already gone eager. The receive is posted 4 µs after the send, once
// Isend has drained its ring and chosen eager but before the eager packet
// lands, so each RTR reaches the sender after its send. It must be dropped
// there as a mis-prediction: the sender ends holding none of them.
func TestStaleRTRIsDroppedOnArrival(t *testing.T) {
	const crossings, gap = 50, 100 * sim.Microsecond
	w, tr := tracedPair(true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		small, big := r.Mem(256), r.Mem(64<<10)
		if err := r.Barrier(p); err != nil { // connects the pair
			return err
		}
		for tag := 0; tag < crossings; tag++ {
			at := 10*sim.Millisecond + sim.Time(tag)*gap
			if r.ID() == 1 {
				at += 4 * sim.Microsecond
			}
			if p.Now() > at {
				return fmt.Errorf("round %d starts at %v, after %v", tag, p.Now(), at)
			}
			p.Sleep(at - p.Now())
			var err error
			if r.ID() == 0 {
				err = r.Send(p, 1, tag, core.Whole(small))
			} else {
				_, err = r.Recv(p, 0, tag, core.Whole(big))
			}
			if err != nil {
				return err
			}
		}
		return r.Barrier(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := w.Rank(0).EarlyRTRs(); n != 0 {
		t.Errorf("sender holds %d stale RTRs, want 0", n)
	}
	if got, rcv := tr.Count("mispredict-rtr-drop"), tr.Count("mispredict-eager"); got != crossings || rcv != crossings {
		t.Errorf("%d sender-side and %d receiver-side mis-predictions, want %d of each: %s", got, rcv, crossings, tr.Summary())
	}
}

func TestTraceAnySourceMatch(t *testing.T) {
	w, tr := tracedPair(true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		if r.ID() == 0 {
			buf := r.Mem(8)
			_, err := r.Recv(p, core.AnySource, 1, core.Whole(buf))
			return err
		}
		p.Sleep(50 * sim.Microsecond)
		buf := r.Mem(8)
		return r.Send(p, 0, 1, core.Whole(buf))
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Count("any-source-match") == 0 {
		t.Fatalf("ANY_SOURCE match not traced: %s", tr.Summary())
	}
}
