package core_test

// Lazy connect over the DCFA provider: Rank.ensurePeer builds the
// peer's half through the peer's own command channel from the caller's
// process, so two processes can want one MicVerbs at the same instant.
// Before MicVerbs serialized its commands their replies crossed
// ("interface {} is uint64, not dcfa.regMRResp") on every shape here
// from 16×2 up.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// alltoallRun runs two checked 64-byte-block Alltoalls on a ranks×nodes
// DCFA world, the first of which makes every lazy connect, and returns
// the simulated time rank 0 measures between the barriers around the
// second.
func alltoallRun(t *testing.T, ranks, nodes int, mode string) sim.Duration {
	t.Helper()
	const block = 64
	w := cluster.New(perfmodel.Default(), nodes).DCFAWorld(ranks, true)
	w.Cfg.ConnectMode = mode
	var timed sim.Duration
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		src, dst := r.Mem(ranks*block), r.Mem(ranks*block)
		want := make([]byte, block)
		for round := 0; round < 2; round++ {
			for i := 0; i < ranks; i++ {
				fill(src.Data[i*block:(i+1)*block], byte(r.ID()*7+i*3+round))
			}
			if err := r.Barrier(p); err != nil {
				return err
			}
			start := p.Now()
			if err := r.Alltoall(p, core.Whole(src), core.Whole(dst), block); err != nil {
				return err
			}
			if err := r.Barrier(p); err != nil {
				return err
			}
			if r.ID() == 0 {
				timed = p.Now() - start
			}
			for i := 0; i < ranks; i++ {
				fill(want, byte(i*7+r.ID()*3+round))
				if !bytes.Equal(dst.Data[i*block:(i+1)*block], want) {
					return fmt.Errorf("round %d: block from rank %d corrupted", round, i)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%d ranks on %d nodes, %s connect: %v", ranks, nodes, mode, err)
	}
	return timed
}

func TestLazyConnectOverDCFA(t *testing.T) {
	for _, shape := range [][2]int{{4, 2}, {8, 2}, {16, 2}, {20, 4}, {24, 3}, {32, 4}} {
		ranks, nodes := shape[0], shape[1]
		t.Run(fmt.Sprintf("%dx%d", ranks, nodes), func(t *testing.T) {
			alltoallRun(t, ranks, nodes, "lazy")
		})
	}
}

// benchmark/README.md chose eager connect for coll_mix_64x8 on the
// grounds that it "gives the same sim_time_us" as lazy: on that shape a
// connected Alltoall takes the same simulated time whichever way the
// pairs were connected. (Smaller shapes differ by under 1 %.)
func TestLazyConnectMatchesEagerAt64x8(t *testing.T) {
	lazy, eager := alltoallRun(t, 64, 8, "lazy"), alltoallRun(t, 64, 8, "eager")
	if lazy != eager {
		t.Errorf("connected Alltoall takes %v after lazy connect, %v after eager", lazy, eager)
	}
}
