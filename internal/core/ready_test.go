package core_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// TestProgressVisitsOnlyMarkedPairs: progress reads the ring of a pair
// only after bytes landed through the pair's QP. On 64 DCFA ranks, eight
// behind each HCA and every pair connected up front, a collective mix
// wakes every rank behind an HCA on each landing, yet the rings read
// never outnumber the landings through the rank's QPs, and are a small
// fraction of what reading every connected ring on every pass would be.
func TestProgressVisitsOnlyMarkedPairs(t *testing.T) {
	const ranks = 64
	c := cluster.New(perfmodel.Default(), 8)
	w := c.DCFAWorld(ranks, false)
	w.Cfg.ConnectMode = "eager"
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		small, large := r.Mem(8), r.Mem(8*4096)
		a2a := r.Mem(ranks * 256)
		if err := r.Allreduce(p, core.Whole(small), core.OpSumF64); err != nil {
			return err
		}
		if err := r.Allreduce(p, core.Whole(large), core.OpSumF64); err != nil {
			return err
		}
		if err := r.Bcast(p, 0, core.Whole(r.Mem(4096))); err != nil {
			return err
		}
		if err := r.Alltoall(p, core.Whole(a2a), core.Whole(r.Mem(ranks*256)), 256); err != nil {
			return err
		}
		return r.Barrier(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	var passes, marks, visits, scan int64
	for i := 0; i < ranks; i++ {
		ps, m, v, degree := w.Rank(i).ProgressCounts()
		if degree != ranks-1 {
			t.Fatalf("rank %d has %d pairs connected, want %d", i, degree, ranks-1)
		}
		if v > m {
			t.Errorf("rank %d read %d rings for %d landings", i, v, m)
		}
		passes, marks, visits, scan = passes+ps, marks+m, visits+v, scan+ps*int64(degree)
	}
	t.Logf("%d progress passes, %d marks, %d ring visits; a full scan reads %d", passes, marks, visits, scan)
	if visits == 0 || visits*50 > scan {
		t.Errorf("%d ring visits, want at most 1/50 of the %d a full scan reads", visits, scan)
	}
}

// TestFinalizeFlushesCreditStarvedQueues: finalize sends what still
// waits for ring credit, and finds it on the ready list, because every
// push onto a pair's queues marks the pair. Rank 1 posts its receives and
// computes for a millisecond without progress while rank 0's sends spend
// every credit, so rank 0 ends holding either an eager send it never
// waited for or the DONE of a receiver-first rendezvous (the RTR landed
// before the send). Rank 1 must still get every message; the eager send
// nobody waited for is still rank 0's leak, and only that.
func TestFinalizeFlushesCreditStarvedQueues(t *testing.T) {
	const slots, small, large = 4, 64, 64 << 10
	for _, tc := range []struct {
		name  string
		large bool // the last message is a rendezvous, whose DONE is queued
	}{{"eager send", false}, {"control packet", true}} {
		t.Run(tc.name, func(t *testing.T) {
			size := func(tag int) int {
				if tc.large && tag == slots-1 {
					return large
				}
				return small
			}
			c := cluster.New(perfmodel.Default(), 2)
			w := c.DCFAWorld(2, false)
			w.Cfg.EagerSlots = slots
			err := w.Run(func(r *core.Rank) error {
				p := r.Proc()
				var reqs []*core.Request
				var bufs []core.Slice
				if r.ID() == 0 {
					p.Sleep(50 * sim.Microsecond)
				}
				for tag := 0; tag < slots; tag++ {
					s := core.Whole(r.Mem(size(tag)))
					var q *core.Request
					var err error
					if r.ID() == 0 {
						for i := range s.Bytes() {
							s.Bytes()[i] = byte(tag + i)
						}
						q, err = r.Isend(p, 1, tag, s)
					} else {
						q, err = r.Irecv(p, 0, tag, s)
					}
					if err != nil {
						return err
					}
					reqs, bufs = append(reqs, q), append(bufs, s)
				}
				if r.ID() == 0 {
					if !tc.large {
						reqs = reqs[:slots-1] // the last is left to finalize
					}
					return r.WaitAll(p, reqs...)
				}
				p.Sleep(sim.Millisecond) // compute: no progress
				if err := r.WaitAll(p, reqs...); err != nil {
					return err
				}
				for tag, s := range bufs {
					for i, b := range s.Bytes() {
						if b != byte(tag+i) {
							return fmt.Errorf("tag %d corrupt at byte %d", tag, i)
						}
					}
				}
				return nil
			})
			if !tc.large {
				// Finalize flushed the packet, so rank 1 is clean; rank 0
				// still returned owing a wait.
				var leak *core.LeakError
				if !errors.As(err, &leak) || leak.Rank != 0 || leak.Requests != 1 || leak.Pins != 0 || w.Errs()[1] != nil {
					t.Fatalf("Run = %v, want rank 0's one un-waited send as its only error", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
