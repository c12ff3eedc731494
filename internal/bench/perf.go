package bench

// Deterministic engine workloads for cmd/simprof, internal/scale, the
// core torture suite and the determinism tests (wall-clock numbers come
// from benchmark/, not from here). The workloads are pure simulation —
// no wall-clock reads, no randomness beyond a seeded sim.SplitMix — so
// a result is identified by its fingerprint and two runs of one
// workload are bit-identical.

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// PerfResult captures everything a deterministic harness run produces:
// the dispatched-event count and final virtual time (the work done) and
// the event-order fingerprint that pins the schedule.
type PerfResult struct {
	Workload    string
	Events      int64
	SimTime     sim.Time
	Fingerprint uint64
}

// tortureSizes straddle the 8 KiB eager threshold: eager, boundary,
// boundary+1 (smallest rendezvous), and a large rendezvous that crosses
// the offload-send threshold. An ANY_SOURCE receive takes the largest.
var tortureSizes = []int{64, 1024, 8192, 8193, 32768}

type tortureMsg struct{ src, dst, size, tag int }

// Torture returns the body of the seeded randomized point-to-point
// torture: rounds bulk-synchronous rounds of msgs Isend/Irecv pairs
// among ranks ranks, over tortureSizes. Odd rounds post every receive
// as MPI_ANY_SOURCE with the round's one tag (a wildcard can match any
// of the round's messages but never a collective's control packet,
// whose tags are negative); directed rounds tag each message apart.
// Each round waits for all it posted, requires every request done,
// checks every receive's status and payload bytes, and ends in a
// Barrier. It stresses matching, the ANY_SOURCE lock, rendezvous and
// the collectives' control path at once.
func Torture(seed uint64, ranks, rounds, msgs int) func(*core.Rank) error {
	g := sim.NewSplitMix(seed)
	sched := make([][]tortureMsg, rounds)
	for rd := range sched {
		for m := 0; m < msgs; m++ {
			src := g.Intn(ranks)
			dst := g.Intn(ranks - 1)
			if dst >= src {
				dst++
			}
			tag := rd*1000 + m
			if rd%2 == 1 {
				tag = rd * 1000
			}
			sched[rd] = append(sched[rd], tortureMsg{src: src, dst: dst, size: tortureSizes[g.Intn(len(tortureSizes))], tag: tag})
		}
	}
	pattern := func(rd int, m *tortureMsg, i int) byte {
		return byte(uint64(i)*2654435761 + seed + uint64(rd*31+m.src*7+m.size))
	}
	return func(r *core.Rank) error {
		p := r.Proc()
		me := r.ID()
		for rd, ro := range sched {
			anySrc := rd%2 == 1
			// Post everything, then complete what was posted even when a
			// later post fails: abandoning an issued request would leak
			// its pinned buffer, which World.Run reports as a
			// *core.LeakError.
			var reqs []*core.Request
			var bufs []core.Slice
			var postErr error
			for mi := range ro {
				if m := &ro[mi]; m.dst == me {
					src, size := m.src, m.size
					if anySrc {
						src, size = core.AnySource, tortureSizes[len(tortureSizes)-1]
					}
					s := core.Whole(r.Mem(size))
					var q *core.Request
					if q, postErr = r.Irecv(p, src, m.tag, s); postErr != nil {
						break
					}
					reqs, bufs = append(reqs, q), append(bufs, s)
				}
			}
			for mi := 0; postErr == nil && mi < len(ro); mi++ {
				if m := &ro[mi]; m.src == me {
					s := core.Whole(r.Mem(m.size))
					b := s.Bytes()
					for i := range b {
						b[i] = pattern(rd, m, i)
					}
					var q *core.Request
					if q, postErr = r.Isend(p, m.dst, m.tag, s); postErr == nil {
						reqs = append(reqs, q)
					}
				}
			}
			if err := errors.Join(r.WaitAll(p, reqs...), postErr); err != nil {
				return fmt.Errorf("round %d: %w", rd, err)
			}
			for _, q := range reqs {
				if !q.Done() {
					return fmt.Errorf("round %d: leaked request (WaitAll returned with it pending)", rd)
				}
			}
			// Receives come first in reqs, in the order ro lists them;
			// an ANY_SOURCE one is identified by its status's source
			// and length.
			k := 0
			for mi := range ro {
				if ro[mi].dst != me {
					continue
				}
				st, want := reqs[k].Status(), &ro[mi]
				if anySrc {
					want = nil
					for mj := range ro {
						if c := &ro[mj]; c.dst == me && c.src == st.Source && c.size == st.Len {
							want = c
							break
						}
					}
				}
				if want == nil || st.Source != want.src || st.Len != want.size {
					return fmt.Errorf("round %d: status %+v matches no message to rank %d", rd, st, me)
				}
				for i, b := range bufs[k].Bytes()[:st.Len] {
					if b != pattern(rd, want, i) {
						return fmt.Errorf("round %d: payload from %d corrupt at byte %d of %d", rd, st.Source, i, st.Len)
					}
				}
				k++
			}
			if err := r.Barrier(p); err != nil {
				return fmt.Errorf("round %d barrier: %w", rd, err)
			}
		}
		return nil
	}
}

// TortureFlood runs Torture on a 4-rank DCFA-MPI world. The Env's fault
// plan (nil = sunny day) drives the transport fault injector; with
// none, the fingerprint matches the uninstrumented run.
func (e *Env) TortureFlood(plat *perfmodel.Platform, seed uint64, rounds, msgs int) (PerfResult, error) {
	const ranks = 4
	c := e.Cluster(plat, ranks)
	if err := c.World(cluster.ModeDCFA, ranks).Run(Torture(seed, ranks, rounds, msgs)); err != nil {
		return PerfResult{}, err
	}
	return PerfResult{
		Workload:    "torture-4rank",
		Events:      c.Eng.EventsRun(),
		SimTime:     c.Eng.Now(),
		Fingerprint: c.Eng.Fingerprint(),
	}, nil
}
