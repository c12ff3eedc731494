package core

import (
	"fmt"
	"math"
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
	v   *dcfa.MicVerbs
	omr *dcfa.OffloadMR
	// free holds disjoint [off, end) ranges sorted by offset.
	free []offRange
	// inUse is the bytes held by allocated ranges; Rank.leaked reads it.
	inUse int
}

type offRange struct{ off, end int }

// offRegion is one allocated staging range: n bytes at off. It is a
// value: the send it stages keeps the offset (Request.off), n being the
// send's length, and the arena is always its rank's.
type offRegion struct{ off, n int }

// newOffArena registers an arena of the given size via DCFA's offload MR
// verbs.
func newOffArena(p *sim.Proc, v *dcfa.MicVerbs, size int) (*offArena, error) {
	if size > math.MaxInt32 {
		// Request.off is 32 bits wide.
		return nil, fmt.Errorf("core: offload arena of %d bytes: a request addresses at most 2 GiB", size)
	}
	omr, err := v.RegOffloadMR(p, size)
	if err != nil {
		return nil, err
	}
	return &offArena{v: v, omr: omr, free: []offRange{{0, size}}}, nil
}

// alloc carves n bytes, first-fit. It reports false when no range is
// large enough; the caller falls back to the direct (non-offloaded)
// path.
func (a *offArena) alloc(n int) (offRegion, bool) {
	for i, r := range a.free {
		if r.end-r.off >= n {
			reg := offRegion{off: r.off, n: n}
			if r.off+n == r.end {
				a.free = append(a.free[:i], a.free[i+1:]...)
			} else {
				a.free[i].off += n
			}
			a.inUse += n
			return reg, true
		}
	}
	return offRegion{}, false
}

// release returns the region to the free list, coalescing neighbors. A
// region that overlaps a free range was never this arena's to take back
// (released twice, or to the wrong arena), and panics.
func (a *offArena) release(reg offRegion) {
	nr := offRange{reg.off, reg.off + reg.n}
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].off >= nr.off })
	if (i < len(a.free) && a.free[i].off < nr.end) || (i > 0 && a.free[i-1].end > nr.off) {
		panic("core: offload region released but not held")
	}
	a.inUse -= reg.n
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
func (a *offArena) sync(p *sim.Proc, reg offRegion, src []byte) error {
	if len(src) > reg.n {
		return fmt.Errorf("core: offload sync of %d bytes into %d-byte region", len(src), reg.n)
	}
	return a.v.SyncOffloadMR(p, a.omr, reg.off, src)
}

// addr returns the host-side IB address of the byte at off.
func (a *offArena) addr(off int) uint64 { return a.omr.HostBuf.Addr + uint64(off) }
