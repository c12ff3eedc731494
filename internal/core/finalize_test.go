package core_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// finishedRun runs body on a ranks-rank world of mode m under the fault
// spec and returns the engine's fingerprint with the run's error.
func finishedRun(m cluster.Mode, ranks int, spec string, tune func(*core.Config), body func(r *core.Rank) error) (uint64, error) {
	plan, err := faults.Parse(spec)
	if err != nil {
		return 0, err
	}
	c := cluster.New(perfmodel.Default(), m.Nodes(ranks))
	c.SetFaults(plan)
	cfg := c.Config(m)
	if tune != nil {
		tune(&cfg)
	}
	w := core.NewWorld(c.Eng, c.Plat, cfg, c.Envs(m, ranks))
	err = w.Run(body)
	return c.Eng.Fingerprint(), err
}

// p2pBody moves n verified bytes between ranks 0 and 1: one way with
// Send/Recv, or both ways with Sendrecv.
func p2pBody(n int, sendrecv bool) func(r *core.Rank) error {
	return func(r *core.Rank) error {
		p, me := r.Proc(), r.ID()
		other := 1 - me
		sb, rb := r.Mem(n), r.Mem(n)
		fill(sb.Data, byte(10+me))
		switch {
		case sendrecv:
			if _, err := r.Sendrecv(p, other, 3, core.Whole(sb), other, 3, core.Whole(rb)); err != nil {
				return err
			}
		case me == 0:
			return r.Send(p, 1, 3, core.Whole(sb))
		default:
			if _, err := r.Recv(p, 0, 3, core.Whole(rb)); err != nil {
				return err
			}
		}
		want := make([]byte, n)
		fill(want, byte(10+other))
		for i := range want {
			if rb.Data[i] != want[i] {
				return fmt.Errorf("rank %d: payload corrupt at byte %d of %d", me, i, n)
			}
		}
		return nil
	}
}

// allreduceBody sums elems small-integer f64s per rank over ranks ranks
// and checks every element on every rank.
func allreduceBody(ranks, elems int) func(r *core.Rank) error {
	val := func(id, i int) float64 { return float64((id*31 + i*7) % 512) }
	return func(r *core.Rank) error {
		buf := r.Mem(elems * 8)
		for i := 0; i < elems; i++ {
			binary.LittleEndian.PutUint64(buf.Data[i*8:], math.Float64bits(val(r.ID(), i)))
		}
		if err := r.Allreduce(r.Proc(), core.Whole(buf), core.OpSumF64); err != nil {
			return err
		}
		for i := 0; i < elems; i++ {
			want := 0.0
			for id := 0; id < ranks; id++ {
				want += val(id, i)
			}
			if got := math.Float64frombits(binary.LittleEndian.Uint64(buf.Data[i*8:])); got != want {
				return fmt.Errorf("rank %d: element %d = %v, want %v", r.ID(), i, got, want)
			}
		}
		return nil
	}
}

// TestFinishedRankStillRecovers: a rank whose body has returned may still
// hold a work request in flight — the DONE closing a rendezvous, an eager
// write — and under a fault plan only its poster replays it. Finalize
// must keep driving progress until those requests complete, or the peer
// waits on a packet nobody will resend and the run ends in the deadlock
// detector. Every run must finish with a verified payload and no error.
func TestFinishedRankStillRecovers(t *testing.T) {
	check := func(t *testing.T, spec string, err error) {
		t.Helper()
		var de *sim.DeadlockError
		var le *core.LeakError
		switch {
		case err == nil:
		case errors.As(err, &de):
			t.Errorf("%s: deadlock: %v", spec, err)
		case errors.As(err, &le):
			t.Errorf("%s: leak: %v", spec, err)
		default:
			t.Errorf("%s: %v", spec, err)
		}
	}

	t.Run("repro", func(t *testing.T) {
		const spec = "seed=163,ib=0.02"
		fp1, err := finishedRun(cluster.ModeHost, 2, spec, nil, p2pBody(8193, false))
		check(t, spec, err)
		fp2, err := finishedRun(cluster.ModeHost, 2, spec, nil, p2pBody(8193, false))
		check(t, spec+" rerun", err)
		if fp2 != fp1 {
			t.Errorf("%s: same-seed rerun fingerprint %#x, first run %#x", spec, fp2, fp1)
		}
	})

	for _, m := range []cluster.Mode{cluster.ModeHost, cluster.ModeDCFA} {
		for _, n := range []int{8193, 32768, 800000} {
			for _, sendrecv := range []bool{false, true} {
				op := "send-recv"
				if sendrecv {
					op = "sendrecv"
				}
				t.Run(fmt.Sprintf("%v/%d/%s", m, n, op), func(t *testing.T) {
					for seed := 1; seed <= 100; seed++ {
						spec := fmt.Sprintf("seed=%d,ib=0.02", seed)
						_, err := finishedRun(m, 2, spec, nil, p2pBody(n, sendrecv))
						check(t, spec, err)
					}
				})
			}
		}
	}

	// The scale workload's configuration: a shallow eager ring, a 1 KiB
	// eager threshold and pairs wired at first contact.
	for _, algo := range []string{"naive", "ring", "rd"} {
		for _, ranks := range []int{2, 3, 4, 8} {
			scale := func(cfg *core.Config) {
				cfg.EagerSlots, cfg.EagerMax, cfg.ConnectMode, cfg.CollAllreduce = 8, 1024, "lazy", algo
			}
			t.Run(fmt.Sprintf("allreduce-%s/%d", algo, ranks), func(t *testing.T) {
				for seed := 1; seed <= 50; seed++ {
					spec := fmt.Sprintf("seed=%d,ib=0.02", seed)
					_, err := finishedRun(cluster.ModeHost, ranks, spec, scale, allreduceBody(ranks, 300))
					check(t, spec, err)
				}
			})
		}
	}
}
