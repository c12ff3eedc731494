package core

import (
	"slices"

	"repro/internal/ib"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// MRCache is the paper's buffer cache pool: memory-region registration
// on the co-processor is expensive (delegated to the host), so the most
// recently used regions are kept registered and reused when a user
// buffer falls inside a cached region. Eviction is LRU, but regions
// referenced by in-flight rendezvous operations are pinned: evicting
// (and deregistering) a region mid-transfer would fault the peer's
// RDMA. Callers pair every Get with a Release.
type MRCache struct {
	v   Verbs
	pd  *ib.PD
	cap int

	// entries are the cached registrations, most recently used first.
	entries []mrEntry

	// Hits and Misses expose cache effectiveness; the paper notes the
	// pool "can only benefit applications which always reuse a few
	// buffers".
	Hits   int64
	Misses int64

	// Telemetry handles (nil when metrics are disabled; see instrument).
	hitsC      *metrics.Counter
	missesC    *metrics.Counter
	evictionsC *metrics.Counter
	pinnedB    *metrics.Gauge
}

// mrEntry is one cached registration and the number of Gets not yet
// released on it.
type mrEntry struct {
	mr   *ib.MR
	refs int
}

// NewMRCache builds a cache over v with the given capacity.
func NewMRCache(v Verbs, pd *ib.PD, capacity int) *MRCache {
	if capacity < 1 {
		capacity = 1
	}
	return &MRCache{v: v, pd: pd, cap: capacity}
}

// instrument attaches telemetry counters under the given actor. A nil
// registry hands out nil handles, so recording stays a nil-check no-op.
func (c *MRCache) instrument(reg *metrics.Registry, actor string) {
	c.hitsC = reg.Counter(actor, "mrcache.hits")
	c.missesC = reg.Counter(actor, "mrcache.misses")
	c.evictionsC = reg.Counter(actor, "mrcache.evictions")
	c.pinnedB = reg.Gauge(actor, "mrcache.pinned-bytes")
}

// Get returns a registered MR covering [addr, addr+n) in dom, reusing a
// cached registration when one covers the range ("the memory region hit
// will be reused, otherwise a new memory region will be registered").
// The entry is pinned until the matching Release.
func (c *MRCache) Get(p *sim.Proc, dom *machine.Domain, addr uint64, n int) (*ib.MR, error) {
	for i, e := range c.entries {
		mr := e.mr
		if mr.Dom == dom && addr >= mr.Addr && addr+uint64(n) <= mr.Addr+uint64(mr.Len) {
			c.Hits++
			c.hitsC.Inc()
			if e.refs == 0 {
				c.pinnedB.Add(int64(mr.Len))
			}
			e.refs++
			// Move the entry to the front.
			copy(c.entries[1:i+1], c.entries[:i])
			c.entries[0] = e
			return mr, nil
		}
	}
	c.Misses++
	c.missesC.Inc()
	mr, err := c.v.RegMR(p, c.pd, dom, addr, n)
	if err != nil {
		return nil, err
	}
	c.pinnedB.Add(int64(mr.Len))
	c.entries = slices.Insert(c.entries, 0, mrEntry{mr: mr, refs: 1})
	if err := c.evictExcess(p); err != nil {
		return nil, err
	}
	return mr, nil
}

// Release unpins a region obtained from Get and evicts entries beyond
// capacity, charging the deregistration to p.
func (c *MRCache) Release(p *sim.Proc, mr *ib.MR) {
	i := slices.IndexFunc(c.entries, func(e mrEntry) bool { return e.mr == mr })
	if i < 0 {
		panic("core: MR cache release of unknown region")
	}
	e := &c.entries[i]
	if e.refs <= 0 {
		panic("core: MR cache release without matching Get")
	}
	e.refs--
	if e.refs == 0 {
		c.pinnedB.Add(-int64(mr.Len))
	}
	if err := c.evictExcess(p); err != nil {
		panic(err)
	}
}

// evictExcess deregisters the oldest unpinned entries beyond capacity.
// When everything over capacity is pinned, the cache temporarily grows.
func (c *MRCache) evictExcess(p *sim.Proc) error {
	for len(c.entries) > c.cap {
		i := len(c.entries) - 1
		for i >= 0 && c.entries[i].refs > 0 {
			i--
		}
		if i < 0 {
			return nil // all pinned; retry on the next Release
		}
		mr := c.entries[i].mr
		c.entries = slices.Delete(c.entries, i, i+1)
		c.evictionsC.Inc()
		if err := c.v.DeregMR(p, mr); err != nil {
			return err
		}
	}
	return nil
}

// Len reports cached registrations.
func (c *MRCache) Len() int { return len(c.entries) }

// Pinned reports currently referenced entries.
func (c *MRCache) Pinned() int {
	n := 0
	for _, e := range c.entries {
		if e.refs > 0 {
			n++
		}
	}
	return n
}

// Flush deregisters everything (teardown); all entries must be
// unpinned.
func (c *MRCache) Flush(p *sim.Proc) error {
	for _, e := range c.entries {
		if e.refs > 0 {
			panic("core: MR cache flush with pinned regions")
		}
		if err := c.v.DeregMR(p, e.mr); err != nil {
			return err
		}
	}
	c.entries = nil
	return nil
}
