package core_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

func TestConfigDefaultsFilledFromPlatform(t *testing.T) {
	plat := perfmodel.Default()
	cfg := core.ConfigFromPlatform(plat)
	if cfg.EagerMax != plat.EagerMax {
		t.Fatalf("EagerMax %d", cfg.EagerMax)
	}
	if cfg.EagerSlots != plat.EagerSlots {
		t.Fatalf("EagerSlots %d", cfg.EagerSlots)
	}
	if cfg.MRCacheCap != plat.MRCacheEntries {
		t.Fatalf("MRCacheCap %d", cfg.MRCacheCap)
	}
	if cfg.OffloadMinSize != plat.OffloadMinSize {
		t.Fatalf("OffloadMinSize %d", cfg.OffloadMinSize)
	}
	if cfg.OffloadArena <= 0 || cfg.OffloadPackMinSize <= 0 {
		t.Fatal("arena/pack defaults missing")
	}
}

func TestErrsCollectsPerRank(t *testing.T) {
	_, w := pair(true)
	boom := errors.New("boom")
	err := w.Run(func(r *core.Rank) error {
		if r.ID() == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("run err %v", err)
	}
	errs := w.Errs()
	if errs[0] != nil || !errors.Is(errs[1], boom) {
		t.Fatalf("per-rank errors %v", errs)
	}
}

func TestTwoWorldsShareOneEngine(t *testing.T) {
	// Launch two independent 2-rank worlds on the same engine and
	// drive both to completion with a single Run.
	plat := perfmodel.Default()
	c := cluster.New(plat, 2)
	cfg := core.ConfigFromPlatform(plat)
	wa := core.NewWorld(c.Eng, plat, cfg, c.DCFAEnvs(2))
	wb := core.NewWorld(c.Eng, plat, cfg, c.HostEnvs(2))
	body := func(r *core.Rank) error {
		p := r.Proc()
		buf := r.Mem(128)
		other := 1 - r.ID()
		_, err := r.Sendrecv(p, other, 0, core.Whole(buf), other, 0, core.Whole(buf))
		return err
	}
	wa.Launch(body)
	wb.Launch(body)
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	for _, w := range []*core.World{wa, wb} {
		for _, err := range w.Errs() {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestWorldRankAccessors(t *testing.T) {
	_, w := pair(true)
	if w.Size() != 2 {
		t.Fatalf("size %d", w.Size())
	}
	err := w.Run(func(r *core.Rank) error {
		if w.Rank(r.ID()) != r {
			return errors.New("Rank accessor mismatch")
		}
		if r.Size() != 2 || r.World() != w {
			return errors.New("rank metadata wrong")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSetupErrorKeepsBarrierBalanced(t *testing.T) {
	// A world whose provider fails setup must not hang the other ranks.
	plat := perfmodel.Default()
	c := cluster.New(plat, 2)
	cfg := core.ConfigFromPlatform(plat)
	cfg.EagerSlots = 1
	w := core.NewWorld(c.Eng, plat, cfg, c.DCFAEnvs(2))
	// With one eager slot the world still works; this is a smoke check
	// that extreme configs run (flow control saturates but recovers).
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		buf := r.Mem(32)
		other := 1 - r.ID()
		for i := 0; i < 10; i++ {
			if r.ID() == 0 {
				if err := r.Send(p, other, i, core.Whole(buf)); err != nil {
					return err
				}
			} else {
				if _, err := r.Recv(p, other, i, core.Whole(buf)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		var de *sim.DeadlockError
		if errors.As(err, &de) && strings.Contains(err.Error(), "mpi-rank") {
			t.Fatalf("single-slot ring deadlocked: %v", err)
		}
		t.Fatal(err)
	}
}
