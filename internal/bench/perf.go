package bench

// Deterministic engine workloads for cmd/simprof, internal/scale and
// the determinism tests (wall-clock numbers come from benchmark/, not
// from here). The workloads are pure simulation — no wall-clock reads,
// no randomness beyond a seeded splitmix64 — so a result is identified
// by its fingerprint and two runs of one workload are bit-identical.

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// PerfResult captures everything a deterministic harness run produces:
// the dispatched-event count and final virtual time (the work done),
// the application payload moved, and the event-order fingerprint that
// pins the schedule.
type PerfResult struct {
	Workload     string
	Events       int64
	SimTime      sim.Time
	PayloadBytes int64
	Fingerprint  uint64
}

// perfRNG is a splitmix64 generator for workload construction (the
// repo bans math/rand to keep runs reproducible).
type perfRNG struct{ s uint64 }

func (g *perfRNG) next() uint64 {
	g.s += 0x9E3779B97F4A7C15
	z := g.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (g *perfRNG) intn(n int) int { return int(g.next() % uint64(n)) }

// TortureFlood runs the seeded 4-rank randomized
// point-to-point workload from the torture suite, without payload
// checks: rounds bulk-synchronous rounds of msgs directed Isend/Irecv
// pairs each, over sizes straddling the eager/rendezvous threshold,
// closed by a Barrier. It stresses matching, rendezvous and the
// collectives' control path at once. The Env's fault plan (nil = sunny
// day) drives the transport fault injector; with none, the fingerprint
// matches the uninstrumented run.
func (e *Env) TortureFlood(plat *perfmodel.Platform, seed uint64, rounds, msgs int) (PerfResult, error) {
	sizes := []int{64, 1024, 8192, 8193, 32768}
	type pmsg struct{ src, dst, size, tag int }
	const ranks = 4
	g := perfRNG{s: seed}
	sched := make([][]pmsg, rounds)
	var payload int64
	for rd := range sched {
		for m := 0; m < msgs; m++ {
			src := g.intn(ranks)
			dst := g.intn(ranks - 1)
			if dst >= src {
				dst++
			}
			sz := sizes[g.intn(len(sizes))]
			sched[rd] = append(sched[rd], pmsg{src: src, dst: dst, size: sz, tag: rd*1000 + m})
			payload += int64(sz)
		}
	}
	c := e.Cluster(plat, ranks)
	err := c.World(cluster.ModeDCFA, ranks).Run(func(r *core.Rank) error {
		p := r.Proc()
		me := r.ID()
		for _, ro := range sched {
			// Post everything, then complete what was posted even when a
			// later post fails: abandoning an issued Irecv would leak its
			// pinned buffer, which World.Run reports as a *core.LeakError.
			var reqs []*core.Request
			var postErr error
			for mi := range ro {
				m := &ro[mi]
				if m.dst != me {
					continue
				}
				q, err := r.Irecv(p, m.src, m.tag, core.Whole(r.Mem(m.size)))
				if err != nil {
					postErr = err
					break
				}
				reqs = append(reqs, q)
			}
			if postErr == nil {
				for mi := range ro {
					m := &ro[mi]
					if m.src != me {
						continue
					}
					q, err := r.Isend(p, m.dst, m.tag, core.Whole(r.Mem(m.size)))
					if err != nil {
						postErr = err
						break
					}
					reqs = append(reqs, q)
				}
			}
			if err := r.WaitAll(p, reqs...); err != nil {
				return err
			}
			if postErr != nil {
				return postErr
			}
			if err := r.Barrier(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return PerfResult{}, err
	}
	return PerfResult{
		Workload:     "torture-4rank",
		Events:       c.Eng.EventsRun(),
		SimTime:      c.Eng.Now(),
		PayloadBytes: payload,
		Fingerprint:  c.Eng.Fingerprint(),
	}, nil
}
