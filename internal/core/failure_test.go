package core_test

// Failure injection: the MPI layer must surface hardware faults and
// application protocol errors rather than hang or corrupt data.

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

func TestMissingReceiveIsDetectedAsDeadlock(t *testing.T) {
	// Rank 0 sends a rendezvous message nobody receives and waits for
	// the DONE that never comes: the engine must name the stuck ranks
	// instead of hanging.
	_, w := pair(true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		if r.ID() == 0 {
			buf := r.Mem(64 << 10)
			return r.Send(p, 1, 1, core.Whole(buf))
		}
		// Rank 1 never posts the receive but stays blocked forever on
		// a message from nowhere.
		buf := r.Mem(8)
		_, err := r.Recv(p, 0, 999, core.Whole(buf))
		return err
	})
	var de *sim.DeadlockError
	if errors.As(err, &de) {
		if len(de.Stuck) == 0 {
			t.Fatalf("deadlock with no stuck ranks: %v", de)
		}
		return
	}
	// A tag-mismatch error is also an acceptable detection: the recv
	// consumed the sequence id with the wrong tag.
	if err == nil {
		t.Fatal("lost rendezvous neither deadlocked nor errored")
	}
}

// A world whose run fails must take its goroutines with it: the stuck
// ranks and the DCFA delegation daemons behind them.
func TestFailedWorldLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	_, w := pair(true)
	err := w.Run(func(r *core.Rank) error {
		buf := r.Mem(8)
		_, err := r.Recv(r.Proc(), 1-r.ID(), 1, core.Whole(buf))
		return err
	})
	var de *sim.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("got %v, want a deadlock", err)
	}
	waitGoroutines(t, base)
}

// A clean run leaves its DCFA delegation daemons blocked on their
// command queues; they must go with it too.
func TestCleanRunLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	_, w := pair(true)
	err := w.Run(func(r *core.Rank) error {
		peer, sb, rb := 1-r.ID(), r.Mem(64<<10), r.Mem(64<<10)
		_, err := r.Sendrecv(r.Proc(), peer, 1, core.Whole(sb), peer, 1, core.Whole(rb))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}

// waitGoroutines waits for the live goroutine count to fall back to
// base: the last goroutine exits an instant after Run returns.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for spins := 0; runtime.NumGoroutine() > base; spins++ {
		if spins == 1<<20 {
			t.Fatalf("%d goroutines still live, %d before the run", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

func TestSendToSelfWrongTagSurfaces(t *testing.T) {
	_, w := pair(true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		if r.ID() != 0 {
			return nil
		}
		b := r.Mem(8)
		if err := r.Send(p, 0, 1, core.Whole(b)); err != nil {
			return err
		}
		_, err := r.Recv(p, 0, 2, core.Whole(b))
		if !errors.Is(err, core.ErrTagMismatch) {
			return fmt.Errorf("got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfTruncationSurfaces(t *testing.T) {
	_, w := pair(true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		if r.ID() != 0 {
			return nil
		}
		big := r.Mem(128)
		if err := r.Send(p, 0, 1, core.Whole(big)); err != nil {
			return err
		}
		small := r.Mem(16)
		_, err := r.Recv(p, 0, 1, core.Whole(small))
		if !errors.Is(err, core.ErrTruncate) {
			return fmt.Errorf("got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRankBodyErrorPropagatesWithRankID(t *testing.T) {
	_, w := pair(true)
	sentinel := errors.New("application blew up")
	err := w.Run(func(r *core.Rank) error {
		if r.ID() == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v", err)
	}
	if !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("error %q does not name the failing rank", err)
	}
}

func TestPanicInRankBodySurfacesAsEngineError(t *testing.T) {
	_, w := pair(true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		if r.ID() == 1 {
			p.Sleep(sim.Microsecond)
			panic("rank exploded")
		}
		// Rank 0 blocks forever; the engine must still terminate.
		buf := r.Mem(8)
		_, err := r.Recv(p, 1, 0, core.Whole(buf))
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "rank exploded") {
		t.Fatalf("got %v", err)
	}
}

func TestOffloadArenaExhaustionFallsBackToDirect(t *testing.T) {
	// Arena smaller than one message: the send must still complete via
	// the direct (registered user buffer) path.
	plat := perfmodel.Default()
	c := cluster.New(plat, 2)
	cfg := core.ConfigFromPlatform(plat)
	cfg.OffloadArena = 4 << 10 // 4 KiB arena, 64 KiB message
	w := core.NewWorld(c.Eng, plat, cfg, c.DCFAEnvs(2))
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		buf := r.Mem(64 << 10)
		if r.ID() == 0 {
			fill(buf.Data, 5)
			if err := r.Send(p, 1, 1, core.Whole(buf)); err != nil {
				return err
			}
			if r.Stats.OffloadedSends != 0 {
				return fmt.Errorf("send claimed to be offloaded despite tiny arena")
			}
			return nil
		}
		if _, err := r.Recv(p, 0, 1, core.Whole(buf)); err != nil {
			return err
		}
		want := make([]byte, 64<<10)
		fill(want, 5)
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
}

func TestManyInFlightRendezvousSharesArena(t *testing.T) {
	// More concurrent large sends than the arena can hold at once:
	// later ones fall back, everything completes, no leak.
	plat := perfmodel.Default()
	c := cluster.New(plat, 2)
	cfg := core.ConfigFromPlatform(plat)
	cfg.OffloadArena = 256 << 10
	w := core.NewWorld(c.Eng, plat, cfg, c.DCFAEnvs(2))
	const n = 64 << 10
	const count = 8
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		if r.ID() == 0 {
			var reqs []*core.Request
			for i := 0; i < count; i++ {
				b := r.Mem(n)
				fill(b.Data, byte(i))
				q, err := r.Isend(p, 1, i, core.Whole(b))
				if err != nil {
					return err
				}
				reqs = append(reqs, q)
			}
			return r.WaitAll(p, reqs...)
		}
		for i := 0; i < count; i++ {
			b := r.Mem(n)
			if _, err := r.Recv(p, 0, i, core.Whole(b)); err != nil {
				return err
			}
			want := make([]byte, n)
			fill(want, byte(i))
			for j := range want {
				if b.Data[j] != want[j] {
					return fmt.Errorf("message %d corrupted", i)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTinyMRCacheStillCorrect(t *testing.T) {
	// Capacity 1 with concurrent large send+recv: in-flight regions are
	// pinned, so nothing faults, and the payloads stay intact.
	plat := perfmodel.Default()
	c := cluster.New(plat, 2)
	cfg := core.ConfigFromPlatform(plat)
	cfg.Offload = false
	cfg.MRCacheCap = 1
	w := core.NewWorld(c.Eng, plat, cfg, c.DCFAEnvs(2))
	const n = 64 << 10
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		other := 1 - r.ID()
		for i := 0; i < 4; i++ {
			sb := r.Mem(n)
			rb := r.Mem(n)
			fill(sb.Data, byte(r.ID()*10+i))
			if _, err := r.Sendrecv(p, other, i, core.Whole(sb), other, i, core.Whole(rb)); err != nil {
				return err
			}
			want := make([]byte, n)
			fill(want, byte(other*10+i))
			for j := range want {
				if rb.Data[j] != want[j] {
					return fmt.Errorf("iteration %d corrupted", i)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
