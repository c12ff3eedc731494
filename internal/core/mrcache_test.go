package core

// White-box tests of the buffer cache pool's refcounting, LRU and
// containment logic against a DCFA provider.

import (
	"testing"

	"repro/internal/dcfa"
	"repro/internal/ib"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/pcie"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// cacheRig builds a single-node DCFA verbs provider and runs fn inside
// a simulated process.
func cacheRig(t *testing.T, capacity int, fn func(p *sim.Proc, c *MRCache, dom *machine.Domain)) {
	t.Helper()
	eng := sim.NewEngine()
	plat := perfmodel.Default()
	fab := ib.NewFabric(eng, plat)
	node := machine.NewNode(0)
	hca := fab.AttachHCA(node)
	bus := pcie.Attach(eng, plat, node)
	mic, _ := dcfa.New(eng, plat, node, hca, bus)
	v := DCFAVerbs{MicVerbs: mic}
	eng.Spawn("test", func(p *sim.Proc) {
		pd, _ := v.AllocPD(p)
		c := NewMRCache(v, pd, capacity)
		fn(p, c, node.Mic)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMRCacheHitOnContainedRange(t *testing.T) {
	cacheRig(t, 4, func(p *sim.Proc, c *MRCache, dom *machine.Domain) {
		buf := dom.Alloc(64 << 10)
		mr1, err := c.Get(p, dom, buf.Addr, 64<<10)
		if err != nil {
			t.Error(err)
			return
		}
		// A sub-range of the registered region must hit.
		mr2, err := c.Get(p, dom, buf.Addr+4096, 1024)
		if err != nil {
			t.Error(err)
			return
		}
		if mr1 != mr2 {
			t.Error("contained range did not reuse the registration")
		}
		if c.Hits != 1 || c.Misses != 1 {
			t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
		}
		c.Release(p, mr1)
		c.Release(p, mr2)
	})
}

func TestMRCacheEvictsLRUOnlyUnpinned(t *testing.T) {
	cacheRig(t, 2, func(p *sim.Proc, c *MRCache, dom *machine.Domain) {
		reg := metrics.New()
		c.instrument(reg, "cache")
		bufs := []*machine.Buffer{dom.Alloc(4096), dom.Alloc(4096), dom.Alloc(4096)}
		mr0, _ := c.Get(p, dom, bufs[0].Addr, 4096)
		mr1, _ := c.Get(p, dom, bufs[1].Addr, 4096)
		// Both pinned; a third registration must not evict either.
		mr2, _ := c.Get(p, dom, bufs[2].Addr, 4096)
		if c.Len() != 3 {
			t.Errorf("len=%d, want 3 (all pinned)", c.Len())
		}
		if c.Pinned() != 3 {
			t.Errorf("pinned=%d", c.Pinned())
		}
		// Release the oldest: eviction back to capacity must occur.
		c.Release(p, mr0)
		if c.Len() != 2 {
			t.Errorf("len=%d after release, want 2", c.Len())
		}
		if n := reg.Counter("cache", "mrcache.evictions").Value(); n != 1 {
			t.Errorf("evictions=%d", n)
		}
		// The evicted region must be re-registered on next use.
		miss0 := c.Misses
		mrAgain, _ := c.Get(p, dom, bufs[0].Addr, 4096)
		if c.Misses != miss0+1 {
			t.Error("evicted region hit the cache")
		}
		c.Release(p, mr1)
		c.Release(p, mr2)
		c.Release(p, mrAgain)
	})
}

func TestMRCacheDoubleReleasePanics(t *testing.T) {
	cacheRig(t, 2, func(p *sim.Proc, c *MRCache, dom *machine.Domain) {
		buf := dom.Alloc(4096)
		mr, _ := c.Get(p, dom, buf.Addr, 4096)
		c.Release(p, mr)
		defer func() {
			if recover() == nil {
				t.Error("double release did not panic")
			}
		}()
		c.Release(p, mr)
	})
}

func TestMRCacheFlushRequiresUnpinned(t *testing.T) {
	cacheRig(t, 2, func(p *sim.Proc, c *MRCache, dom *machine.Domain) {
		buf := dom.Alloc(4096)
		mr, _ := c.Get(p, dom, buf.Addr, 4096)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("flush with pinned region did not panic")
				}
			}()
			c.Flush(p)
		}()
		c.Release(p, mr)
		if err := c.Flush(p); err != nil {
			t.Error(err)
		}
		if c.Len() != 0 {
			t.Errorf("len=%d after flush", c.Len())
		}
	})
}

func TestMRCacheLRUOrder(t *testing.T) {
	cacheRig(t, 2, func(p *sim.Proc, c *MRCache, dom *machine.Domain) {
		a := dom.Alloc(4096)
		b := dom.Alloc(4096)
		cc := dom.Alloc(4096)
		mrA, _ := c.Get(p, dom, a.Addr, 4096)
		mrB, _ := c.Get(p, dom, b.Addr, 4096)
		c.Release(p, mrA)
		c.Release(p, mrB)
		// Touch A so B becomes LRU.
		mrA2, _ := c.Get(p, dom, a.Addr, 4096)
		c.Release(p, mrA2)
		// Insert C: B must be evicted, A retained.
		mrC, _ := c.Get(p, dom, cc.Addr, 4096)
		c.Release(p, mrC)
		hits := c.Hits
		mrA3, _ := c.Get(p, dom, a.Addr, 4096)
		if c.Hits != hits+1 {
			t.Error("A was evicted instead of B")
		}
		c.Release(p, mrA3)
	})
}

// TestMRCacheMissAllocatesOnlyItsRegistration alternates two buffers
// through a capacity-1 cache, so every Get misses, registers and evicts
// the other buffer's registration: the miss may allocate what one
// registration and one deregistration do, and nothing for the cache's
// own bookkeeping.
func TestMRCacheMissAllocatesOnlyItsRegistration(t *testing.T) {
	cacheRig(t, 1, func(p *sim.Proc, c *MRCache, dom *machine.Domain) {
		bufs := [2]*machine.Buffer{dom.Alloc(4096), dom.Alloc(4096)}
		i := 0
		miss := testing.AllocsPerRun(100, func() {
			i++
			mr, err := c.Get(p, dom, bufs[i%2].Addr, 4096)
			if err != nil {
				panic(err)
			}
			c.Release(p, mr)
		})
		reg := testing.AllocsPerRun(100, func() {
			mr, err := c.v.RegMR(p, c.pd, dom, bufs[0].Addr, 4096)
			if err != nil {
				panic(err)
			}
			if err := c.v.DeregMR(p, mr); err != nil {
				panic(err)
			}
		})
		if c.Hits != 0 || c.Len() != 1 {
			t.Errorf("hits=%d len=%d, want every Get to miss and evict", c.Hits, c.Len())
		}
		if miss > reg {
			t.Errorf("a miss allocates %.1f times, a registration and deregistration %.1f", miss, reg)
		}
	})
}
