package core

import (
	"fmt"
	"sort"

	"repro/internal/dcfa"
	"repro/internal/sim"
)

// offArena manages one persistent offloading memory region as a pool of
// sub-ranges for in-flight large sends. Registering a fresh offload MR
// per message would pay the host round trip every time; DCFA-MPI
// registers one arena up front and carves staging ranges out of it. The
// arena lives as long as its rank: nothing deregisters it. First-fit
// keeps staging at the arena's low end, and the daemon reserves the
// host bytes (machine.Domain.Reserve), so a rank's memory pays for the
// pages its staging has reached, not for the registered size.
type offArena struct {
	v   Verbs
	omr *dcfa.OffloadMR
	// free holds disjoint [off, end) ranges sorted by offset.
	free []offRange
	// inUse is the bytes held by allocated ranges; Rank.leaked reads it.
	inUse int
}

type offRange struct{ off, end int }

// offRegion is one allocated staging range.
type offRegion struct {
	arena *offArena
	off   int
	n     int
}

// newOffArena registers an arena of the given size via the offload MR
// verbs.
func newOffArena(p *sim.Proc, v Verbs, size int) (*offArena, error) {
	omr, err := v.RegOffloadMR(p, size)
	if err != nil {
		return nil, err
	}
	return &offArena{v: v, omr: omr, free: []offRange{{0, size}}}, nil
}

// alloc carves n bytes, first-fit. Returns nil when no range is large
// enough; the caller falls back to the direct (non-offloaded) path.
func (a *offArena) alloc(n int) *offRegion {
	for i, r := range a.free {
		if r.end-r.off >= n {
			reg := &offRegion{arena: a, off: r.off, n: n}
			if r.off+n == r.end {
				a.free = append(a.free[:i], a.free[i+1:]...)
			} else {
				a.free[i].off += n
			}
			a.inUse += n
			return reg
		}
	}
	return nil
}

// release returns the region to the free list, coalescing neighbors.
func (a *offArena) release(reg *offRegion) {
	if reg.arena != a {
		panic("core: offload region released to wrong arena")
	}
	a.inUse -= reg.n
	nr := offRange{reg.off, reg.off + reg.n}
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].off >= nr.off })
	a.free = append(a.free, offRange{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = nr
	// Coalesce with right neighbor, then left.
	if i+1 < len(a.free) && a.free[i].end == a.free[i+1].off {
		a.free[i].end = a.free[i+1].end
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].end == a.free[i].off {
		a.free[i-1].end = a.free[i].end
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// sync stages src into the region through the Phi DMA engine.
func (a *offArena) sync(p *sim.Proc, reg *offRegion, src []byte) error {
	if len(src) > reg.n {
		return fmt.Errorf("core: offload sync of %d bytes into %d-byte region", len(src), reg.n)
	}
	return a.v.SyncOffloadMR(p, a.omr, reg.off, src)
}

// addr returns the host-side IB address of the region.
func (reg *offRegion) addr() uint64 { return reg.arena.omr.HostBuf.Addr + uint64(reg.off) }

// rkey returns the host MR rkey.
func (reg *offRegion) rkey() uint32 { return reg.arena.omr.HostMR.RKey }

// lkey returns the host MR lkey (for RDMA-writing out of the bounce).
func (reg *offRegion) lkey() uint32 { return reg.arena.omr.HostMR.LKey }
