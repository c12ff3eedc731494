package core

import (
	"container/list"

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

	lru     *list.List // of *mrEntry, front = most recent
	entries map[*ib.MR]*list.Element

	// Hits and Misses expose cache effectiveness; the paper notes the
	// pool "can only benefit applications which always reuse a few
	// buffers".
	Hits   int64
	Misses int64
	// Evictions counts deregistrations forced by capacity.
	Evictions int64

	// Telemetry handles (nil when metrics are disabled; see instrument).
	hitsC      *metrics.Counter
	missesC    *metrics.Counter
	evictionsC *metrics.Counter
	pinnedB    *metrics.Gauge
}

type mrEntry struct {
	mr   *ib.MR
	refs int
}

// NewMRCache builds a cache over v with the given capacity.
func NewMRCache(v Verbs, pd *ib.PD, capacity int) *MRCache {
	if capacity < 1 {
		capacity = 1
	}
	return &MRCache{v: v, pd: pd, cap: capacity, lru: list.New(), entries: make(map[*ib.MR]*list.Element)}
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
	for e := c.lru.Front(); e != nil; e = e.Next() {
		ent := e.Value.(*mrEntry)
		mr := ent.mr
		if mr.Dom == dom && addr >= mr.Addr && addr+uint64(n) <= mr.Addr+uint64(mr.Len) {
			c.lru.MoveToFront(e)
			c.Hits++
			c.hitsC.Inc()
			if ent.refs == 0 {
				c.pinnedB.Add(int64(mr.Len))
			}
			ent.refs++
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
	e := c.lru.PushFront(&mrEntry{mr: mr, refs: 1})
	c.entries[mr] = e
	if err := c.evictExcess(p); err != nil {
		return nil, err
	}
	return mr, nil
}

// Release unpins a region obtained from Get and evicts entries beyond
// capacity, charging the deregistration to p.
func (c *MRCache) Release(p *sim.Proc, mr *ib.MR) {
	e, ok := c.entries[mr]
	if !ok {
		panic("core: MR cache release of unknown region")
	}
	ent := e.Value.(*mrEntry)
	if ent.refs <= 0 {
		panic("core: MR cache release without matching Get")
	}
	ent.refs--
	if ent.refs == 0 {
		c.pinnedB.Add(-int64(mr.Len))
	}
	if err := c.evictExcess(p); err != nil {
		panic(err)
	}
}

// evictExcess deregisters the oldest unpinned entries beyond capacity.
// When everything over capacity is pinned, the cache temporarily grows.
func (c *MRCache) evictExcess(p *sim.Proc) error {
	for c.lru.Len() > c.cap {
		var victim *list.Element
		for e := c.lru.Back(); e != nil; e = e.Prev() {
			if e.Value.(*mrEntry).refs == 0 {
				victim = e
				break
			}
		}
		if victim == nil {
			return nil // all pinned; retry on the next Release
		}
		mr := victim.Value.(*mrEntry).mr
		c.lru.Remove(victim)
		delete(c.entries, mr)
		c.Evictions++
		c.evictionsC.Inc()
		if err := c.v.DeregMR(p, mr); err != nil {
			return err
		}
	}
	return nil
}

// Len reports cached registrations.
func (c *MRCache) Len() int { return c.lru.Len() }

// Pinned reports currently referenced entries.
func (c *MRCache) Pinned() int {
	n := 0
	for e := c.lru.Front(); e != nil; e = e.Next() {
		if e.Value.(*mrEntry).refs > 0 {
			n++
		}
	}
	return n
}

// Flush deregisters everything (teardown); all entries must be
// unpinned.
func (c *MRCache) Flush(p *sim.Proc) error {
	for e := c.lru.Front(); e != nil; e = e.Next() {
		ent := e.Value.(*mrEntry)
		if ent.refs > 0 {
			panic("core: MR cache flush with pinned regions")
		}
		if err := c.v.DeregMR(p, ent.mr); err != nil {
			return err
		}
	}
	c.lru.Init()
	c.entries = make(map[*ib.MR]*list.Element)
	return nil
}
