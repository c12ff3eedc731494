package core_test

import (
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// TestUnwaitedIrecvIsALeak: a rank that returns while a receive it
// posted is still open fails the run with a *core.LeakError naming it,
// and only that rank fails.
func TestUnwaitedIrecvIsALeak(t *testing.T) {
	_, w := pair(false)
	err := w.Run(func(r *core.Rank) error {
		if r.ID() == 1 {
			_, err := r.Irecv(r.Proc(), 0, 9, core.Whole(r.Mem(64)))
			return err
		}
		return nil
	})
	var leak *core.LeakError
	if !errors.As(err, &leak) {
		t.Fatalf("Run = %v, want a *core.LeakError", err)
	}
	want := core.OpenRequest{Op: "recv", Peer: 0, Tag: 9, State: "posted"}
	if leak.Rank != 1 || leak.Requests != 1 || leak.Pins != 0 || len(leak.Open) != 1 || leak.Open[0] != want {
		t.Errorf("leak = %+v, want rank 1 holding %+v", leak, want)
	}
	if w.Errs()[0] != nil {
		t.Errorf("rank 0 waited for nothing and still failed: %v", w.Errs()[0])
	}
}

// TestLeakJoinsTheBodyError: the exit check runs after a body that
// failed too, and callers still find the body's own error.
func TestLeakJoinsTheBodyError(t *testing.T) {
	_, w := pair(false)
	bodyErr := errors.New("the body's own error")
	err := w.Run(func(r *core.Rank) error {
		if r.ID() == 0 {
			if _, err := r.Irecv(r.Proc(), 1, 3, core.Whole(r.Mem(64))); err != nil {
				return err
			}
			return bodyErr
		}
		return nil
	})
	var leak *core.LeakError
	if !errors.Is(err, bodyErr) || !errors.As(err, &leak) || leak.Rank != 0 {
		t.Fatalf("Run = %v, want the body's error joined with rank 0's leak", err)
	}
}

// TestExitCheckCountsPinsAndStaging: a rendezvous send nobody receives
// holds its buffer's cache pin, or with the offload send buffer its
// staging range, when its rank returns without waiting.
func TestExitCheckCountsPinsAndStaging(t *testing.T) {
	for _, offload := range []bool{false, true} {
		_, w := pair(offload)
		err := w.Run(func(r *core.Rank) error {
			if r.ID() == 0 {
				_, err := r.Isend(r.Proc(), 1, 5, core.Whole(r.Mem(64<<10)))
				return err
			}
			return nil
		})
		var leak *core.LeakError
		if !errors.As(err, &leak) || leak.Rank != 0 || leak.Requests != 1 {
			t.Fatalf("offload %v: Run = %v, want rank 0's open send", offload, err)
		}
		if offload && (leak.Staged != 64<<10 || leak.Pins != 0) || !offload && (leak.Pins != 1 || leak.Staged != 0) {
			t.Errorf("offload %v: %d pins, %d staged bytes", offload, leak.Pins, leak.Staged)
		}
		if want := (core.OpenRequest{Op: "send", Peer: 1, Tag: 5, State: "rts-sent"}); len(leak.Open) != 1 || leak.Open[0] != want {
			t.Errorf("offload %v: open %+v, want %+v", offload, leak.Open, want)
		}
	}
}

// TestUnownedRegistrationFailsRun: a registration made on a rank's
// adapter during the run and never deregistered is one the adapter
// holds and no rank owns; deregistering it leaves the ledger balanced.
func TestUnownedRegistrationFailsRun(t *testing.T) {
	for _, dereg := range []bool{false, true} {
		c := cluster.New(perfmodel.Default(), 2)
		w := core.NewWorld(c.Eng, c.Plat, core.ConfigFromPlatform(c.Plat), c.HostEnvs(2))
		err := w.Run(func(r *core.Rank) error {
			if r.ID() != 0 {
				return nil
			}
			p := r.Proc()
			ctx := c.HCAs[0].Open(machine.HostMem)
			mr, err := ctx.RegMRBuffer(p, ctx.AllocPD(), r.Mem(4096))
			if err != nil || !dereg {
				return err
			}
			return ctx.DeregMR(p, mr)
		})
		var leak *core.LeakError
		switch {
		case dereg && err != nil:
			t.Errorf("balanced registration: Run = %v", err)
		case !dereg && (!errors.As(err, &leak) || leak.Rank != -1 || leak.Live != leak.Want+1):
			t.Errorf("unowned registration: Run = %v, want an adapter holding one region more than accounted for", err)
		}
	}
}

// TestWaitedRequestsLeaveNothing: every way of seeing a request
// complete — Wait, WaitAll, Waitany's index, a Test that reports true —
// settles what the rank owes.
func TestWaitedRequestsLeaveNothing(t *testing.T) {
	_, w := pair(false)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		other := 1 - r.ID()
		var reqs []*core.Request
		for tag := 0; tag < 5; tag++ {
			s, err := r.Isend(p, other, tag, core.Whole(r.Mem(64)))
			if err != nil {
				return err
			}
			q, err := r.Irecv(p, other, tag, core.Whole(r.Mem(64)))
			if err != nil {
				return err
			}
			reqs = append(reqs, s, q)
		}
		if _, err := r.Wait(p, reqs[0]); err != nil {
			return err
		}
		if err := r.WaitAll(p, reqs[1:4]...); err != nil {
			return err
		}
		rest := reqs[4:]
		for len(rest) > 1 {
			i, _, err := r.Waitany(p, rest...)
			if err != nil {
				return err
			}
			rest = append(rest[:i], rest[i+1:]...)
		}
		for !r.Test(p, rest[0]) {
			p.Sleep(sim.Microsecond)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
