// Package mrpin seeds MR-cache pin/release imbalances on a local
// stand-in for core.MRCache: Get pins an entry against eviction, so an
// unmatched Get permanently shrinks the cache and an unmatched Release
// panics at runtime.
package mrpin

type Proc struct{}

type MR struct{ LKey uint32 }

type MRCache struct{}

func (c *MRCache) Get(p *Proc, addr uint64, n int) (*MR, error) { return &MR{}, nil }
func (c *MRCache) Release(p *Proc, mr *MR)                      {}

type request struct{ held []*MR }

func post(k uint32) {}
func cond() bool    { return false }
func fail() error   { return nil }

// PinLeak gets a pinned MR and never releases it.
func PinLeak(c *MRCache, p *Proc) error {
	mr, err := c.Get(p, 0x1000, 64) // want "pinned MR from MRCache.Get is not released on every path"
	if err != nil {
		return err
	}
	post(mr.LKey)
	return nil
}

// PinLeakOnErrorPath releases on the main path but not when the
// intervening operation fails.
func PinLeakOnErrorPath(c *MRCache, p *Proc) error {
	mr, err := c.Get(p, 0x2000, 64) // want "pinned MR from MRCache.Get is not released on every path"
	if err != nil {
		return err
	}
	if err := fail(); err != nil {
		return err // leaks the pin
	}
	c.Release(p, mr)
	return nil
}

// DoubleRelease unpins the same MR twice: the second Release panics.
func DoubleRelease(c *MRCache, p *Proc) {
	mr, err := c.Get(p, 0x3000, 64)
	if err != nil {
		return
	}
	c.Release(p, mr)
	c.Release(p, mr) // want "pinned MR may already be released"
}

// Suppressed carries an ignore directive: no finding.
func Suppressed(c *MRCache, p *Proc) {
	//simlint:ignore mrpin pin intentionally held until Flush
	mr, err := c.Get(p, 0x4000, 64)
	if err != nil {
		return
	}
	post(mr.LKey)
}

// Balanced pins and releases on every path: not flagged.
func Balanced(c *MRCache, p *Proc) error {
	mr, err := c.Get(p, 0x5000, 64)
	if err != nil {
		return err
	}
	post(mr.LKey)
	c.Release(p, mr)
	return nil
}

// LoopPinRelease pins fresh each iteration and releases before the
// back edge: not flagged.
func LoopPinRelease(c *MRCache, p *Proc) error {
	for i := 0; i < 4; i++ {
		mr, err := c.Get(p, uint64(i)*0x1000, 64)
		if err != nil {
			return err
		}
		post(mr.LKey)
		c.Release(p, mr)
	}
	return nil
}

// EarlyReturnAfterRelease releases before the early return and again
// on the fall-through: disjoint paths, no double release, no leak.
func EarlyReturnAfterRelease(c *MRCache, p *Proc) error {
	mr, err := c.Get(p, 0x6000, 64)
	if err != nil {
		return err
	}
	if cond() {
		c.Release(p, mr)
		return nil
	}
	post(mr.LKey)
	c.Release(p, mr)
	return nil
}

// TransfersToRequest stores the pinned MR in a request that owns the
// release from now on: not flagged here.
func TransfersToRequest(c *MRCache, p *Proc, req *request) error {
	mr, err := c.Get(p, 0x7000, 64)
	if err != nil {
		return err
	}
	req.held = append(req.held, mr)
	return nil
}

// ---- declared contracts ----

// unpin releases a cache pin behind a helper.
//
//simlint:contract mrpin release
func unpin(c *MRCache, p *Proc, mr *MR) { c.Release(p, mr) }

// HelperUnpinOK balances the pin through unpin.
func HelperUnpinOK(c *MRCache, p *Proc) {
	mr, err := c.Get(p, 0x6000, 64)
	if err != nil {
		return
	}
	post(mr.LKey)
	unpin(c, p, mr)
}

// DoubleHelperUnpin: the second, helper-mediated release would panic.
func DoubleHelperUnpin(c *MRCache, p *Proc) {
	mr, err := c.Get(p, 0x7000, 64)
	if err != nil {
		return
	}
	c.Release(p, mr)
	unpin(c, p, mr) // want "pinned MR may already be released"
}
