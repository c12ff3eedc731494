// Package omp simulates an OpenMP runtime on the modeled devices: a
// persistent thread team whose parallel-for regions charge virtual time
// according to the platform's thread-scaling curve while (optionally)
// executing the loop body for real, in parallel, on the simulation
// host. The paper's stencil uses MPI across nodes and OpenMP within
// each co-processor (§V, experiment 3).
package omp

import (
	"runtime"
	"sync" // Execute fans pure compute out on real threads, outside sim state

	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// Team is a persistent OpenMP thread team bound to one device.
type Team struct {
	Plat    *perfmodel.Platform
	Threads int
	Loc     machine.DomainKind
}

// NewTeam builds a team of n threads on a device of kind loc.
func NewTeam(plat *perfmodel.Platform, threads int, loc machine.DomainKind) *Team {
	if threads < 1 {
		threads = 1
	}
	return &Team{Plat: plat, Threads: threads, Loc: loc}
}

// rate returns the single-thread work rate (items/second) on the
// device.
func (t *Team) rate() float64 {
	if t.Loc == machine.MicMem {
		return t.Plat.PhiCoreRate
	}
	return t.Plat.HostCoreRate
}

// Scaling returns the effective speedup of the team over one thread.
func (t *Team) Scaling() float64 {
	if t.Loc == machine.MicMem {
		return t.Plat.PhiScaling(t.Threads)
	}
	// Host cores scale near-linearly up to the socket for this kernel.
	s := float64(t.Threads)
	if max := float64(t.Plat.HostCores); s > max {
		s = max
	}
	return s
}

// RegionCost returns the virtual time to process n work items in one
// parallel region, including fork/join overhead.
func (t *Team) RegionCost(n int) sim.Duration {
	if n < 0 {
		n = 0
	}
	work := sim.Duration(float64(n) / (t.rate() * t.Scaling()) * float64(sim.Second))
	return t.Plat.OMPForkCost(t.Threads) + work
}

// ParallelFor charges one parallel region over n items to p. It runs
// nothing: the loop body, if any, runs through Execute.
func (t *Team) ParallelFor(p *sim.Proc, n int) {
	p.Sleep(t.RegionCost(n))
}

// Execute fans body out over [0, n) on real goroutines without charging
// virtual time, and returns the chunk length it split [0, n) into: body
// ran on [0, chunk), [chunk, 2·chunk), … and [k·chunk, n). The body must
// be pure computation: it runs outside the simulation scheduler and must
// not touch sim state. Callers charge the region with ParallelFor, which
// may count items differently (e.g. per point while chunking per row).
func (t *Team) Execute(n int, body func(lo, hi int)) (chunk int) {
	if n <= 0 {
		return 0
	}
	workers := t.Threads
	if w := runtime.GOMAXPROCS(0); workers > w {
		workers = w
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		body(0, n)
		return n
	}
	var wg sync.WaitGroup
	chunk = (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		// Workers run the pure loop body on disjoint chunks and join
		// before returning.
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return chunk
}
