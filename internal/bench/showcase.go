package bench

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// ProtocolShowcase runs a fixed 2-rank DCFA-MPI workload that takes each
// of the four §IV-B3 protocol paths exactly once per direction, plus one
// offload-staged large send (§IV-B4) and one forced protocol
// misprediction. With a registry installed, the resulting spans and
// counters reconstruct the full protocol mix:
//
//   - phase 1: 512 B send           → eager
//   - phase 2: 64 KiB, recv late    → sender-first rendezvous (RDMA read)
//   - phase 3: 64 KiB, send late    → receiver-first rendezvous (RDMA write)
//   - phase 4: 64 KiB Sendrecv      → simultaneous rendezvous, both ways
//   - phase 5: 1 MiB send           → offload-staged sender-first
//   - phase 6: large recv posted early, small send late
//     → receiver predicts rendezvous (RTR), sender goes eager: mispredict
//
// It returns the final virtual time of the run. With a causal recorder
// on the Env it is also the golden workload for the cross-rank causal
// profiler: all protocol classes, a deliberate late sender/late
// receiver pair, and a rendezvous misprediction stall. Recording is
// passive, so the fingerprint is the same with or without it.
func (e *Env) ProtocolShowcase(plat *perfmodel.Platform) (sim.Time, error) {
	c := e.Cluster(plat, 2)
	w := c.World(cluster.ModeDCFA, 2)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		other := 1 - r.ID()
		delay := 400 * sim.Microsecond

		// Phase 1: eager.
		small := r.Mem(512)
		if err := r.Barrier(p); err != nil {
			return err
		}
		if r.ID() == 0 {
			if err := r.Send(p, other, 1, core.Whole(small)); err != nil {
				return err
			}
		} else if _, err := r.Recv(p, other, 1, core.Whole(small)); err != nil {
			return err
		}

		// Phase 2: sender-first rendezvous (receiver arrives late).
		big := r.Mem(64 << 10)
		if err := r.Barrier(p); err != nil {
			return err
		}
		if r.ID() == 0 {
			if err := r.Send(p, other, 2, core.Whole(big)); err != nil {
				return err
			}
		} else {
			p.Sleep(delay)
			if _, err := r.Recv(p, other, 2, core.Whole(big)); err != nil {
				return err
			}
		}

		// Phase 3: receiver-first rendezvous (sender arrives late).
		if err := r.Barrier(p); err != nil {
			return err
		}
		if r.ID() == 0 {
			p.Sleep(delay)
			if err := r.Send(p, other, 3, core.Whole(big)); err != nil {
				return err
			}
		} else if _, err := r.Recv(p, other, 3, core.Whole(big)); err != nil {
			return err
		}

		// Phase 4: simultaneous rendezvous (RTS packets cross in flight).
		rbuf := r.Mem(64 << 10)
		if err := r.Barrier(p); err != nil {
			return err
		}
		if _, err := r.Sendrecv(p, other, 4, core.Whole(big), other, 4, core.Whole(rbuf)); err != nil {
			return err
		}

		// Phase 5: offload-staged large send.
		huge := r.Mem(1 << 20)
		if err := r.Barrier(p); err != nil {
			return err
		}
		if r.ID() == 0 {
			if err := r.Send(p, other, 5, core.Whole(huge)); err != nil {
				return err
			}
		} else if _, err := r.Recv(p, other, 5, core.Whole(huge)); err != nil {
			return err
		}

		// Phase 6: forced rendezvous misprediction. The receiver posts a
		// rendezvous-sized buffer early (so it predicts receiver-first
		// rendezvous and emits an RTR), but the late sender only ships an
		// eager-sized payload: the RTR round trip was wasted and both
		// sides record a mispredict.
		if err := r.Barrier(p); err != nil {
			return err
		}
		if r.ID() == 0 {
			p.Sleep(delay)
			if err := r.Send(p, other, 6, core.Whole(small)); err != nil {
				return err
			}
		} else if _, err := r.Recv(p, other, 6, core.Whole(big)); err != nil {
			return err
		}
		return r.Barrier(p)
	})
	return c.Eng.Now(), err
}
