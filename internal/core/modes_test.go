package core_test

// Mode equivalence: every execution mode must deliver identical bytes
// for the same communication pattern — only the virtual timing differs.

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// allWorlds builds one world of each mode with n ranks.
func allWorlds(n int) map[string]*core.World {
	plat := perfmodel.Default()
	return map[string]*core.World{
		"dcfa":           cluster.New(plat, n).World(cluster.ModeDCFA, n),
		"dcfa-nooffload": cluster.New(plat, n).World(cluster.ModeDCFABase, n),
		"host":           cluster.New(plat, n).World(cluster.ModeHost, n),
		"intel-phi":      cluster.New(plat, n).World(cluster.ModeIntelPhi, n),
		"symmetric":      cluster.New(plat, n).World(cluster.ModeSymmetric, n),
	}
}

func TestAllModesDeliverIdenticalResults(t *testing.T) {
	const n = 4
	sizes := []int{64, 8192, 64 << 10}
	worlds := allWorlds(n)
	names := make([]string, 0, len(worlds))
	for name := range worlds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := worlds[name]
		t.Run(name, func(t *testing.T) {
			var elapsed sim.Duration
			err := w.Run(func(r *core.Rank) error {
				p := r.Proc()
				start := p.Now()
				// Ring pass: each rank sends to the right, receives
				// from the left, verifying content per hop.
				for _, sz := range sizes {
					sb := r.Mem(sz)
					fill(sb.Data, byte(r.ID()*3+sz%251))
					rb := r.Mem(sz)
					right := (r.ID() + 1) % n
					left := (r.ID() - 1 + n) % n
					if _, err := r.Sendrecv(p, right, sz, core.Whole(sb), left, sz, core.Whole(rb)); err != nil {
						return err
					}
					want := make([]byte, sz)
					fill(want, byte(left*3+sz%251))
					if !bytes.Equal(rb.Data, want) {
						return fmt.Errorf("size %d: hop corrupted", sz)
					}
				}
				// And a reduction for good measure.
				v := r.Mem(8)
				core.PutF64s(v.Data, []float64{float64(r.ID() + 1)})
				if err := r.Allreduce(p, core.Whole(v), core.OpSumF64); err != nil {
					return err
				}
				if got := core.GetF64s(v.Data, 1)[0]; got != 10 {
					return fmt.Errorf("allreduce %v", got)
				}
				if r.ID() == 0 {
					elapsed = p.Now() - start
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if elapsed <= 0 {
				t.Fatal("no virtual time elapsed")
			}
		})
	}
}

func TestFinalizeFlushesQueuedControlPackets(t *testing.T) {
	// One-slot rings + one-sided traffic starve the receiver's DONE
	// behind credit flow control; without finalize the sender hangs
	// after the receiver's body returns.
	plat := perfmodel.Default()
	c := cluster.New(plat, 2)
	cfg := core.ConfigFromPlatform(plat)
	cfg.EagerSlots = 1
	w := core.NewWorld(c.Eng, plat, cfg, c.DCFAEnvs(2))
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		const n = 64 << 10
		if r.ID() == 0 {
			// Several rendezvous sends back to back.
			for i := 0; i < 4; i++ {
				buf := r.Mem(n)
				if err := r.Send(p, 1, i, core.Whole(buf)); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < 4; i++ {
			buf := r.Mem(n)
			if _, err := r.Recv(p, 0, i, core.Whole(buf)); err != nil {
				return err
			}
		}
		return nil // receiver exits immediately; finalize must flush
	})
	if err != nil {
		t.Fatal(err)
	}
}
