package sim

import "math/bits"

// calendar is the engine's event queue: a radix heap over the monotone
// clock. Every queued time is at or after last, the time of the latest
// pop (schedule refuses the past, and a pop never runs ahead of the
// clock), so an event is filed by the highest bit at which its time
// differs from last: bucket 0 holds the events at last itself, in the
// order they came, and bucket i those that first differ at bit i-1. A
// bucket's events are all earlier than any higher bucket's, so a pop
// takes bucket 0's head. When bucket 0 is empty it takes the lowest
// non-empty bucket: an event alone there pops where it is; otherwise the
// bucket is settled first, last moving to its earliest time and its
// events refiled, in order, into the buckets below. Every refile lowers
// an event's bucket, and most pops refile nothing at all.
//
// Pops come out in (time, seq) order. Events with equal times always
// share a bucket; appends go to the tail, and refiling walks a bucket
// head to tail into buckets that are empty (everything below the lowest
// non-empty bucket is), so each bucket keeps insertion order, which is
// seq order.
//
// The events live in one slab of nodes threaded by index into the
// buckets' lists and a free list, so once the calendar has been as deep
// as it will get, scheduling allocates nothing. An event pushed into an
// empty calendar waits in solo instead, outside the slab, and moves in
// only when a second one comes: a ping-pong, whose calendar holds at
// most one event most of the time, files nothing.
type calendar struct {
	solo       event     // the lone event, while no bucket holds one
	nodes      []calNode // nodes[0] is the nil link, never an event
	free       int32     // head of the free list
	head, tail [64]int32 // each bucket's list; valid where mask has its bit
	mask       uint64    // bit i set: bucket i is non-empty
	n          int       // events queued
	last       Time
	min        Time // the earliest queued time, when minOK
	minOK      bool
}

type calNode struct {
	ev   event
	next int32
}

// push queues ev; ev.at must not be before last.
func (c *calendar) push(ev event) {
	if c.n == 1 && c.mask == 0 {
		c.add(c.solo)
		c.solo = event{}
	}
	if c.n == 0 {
		c.solo = ev
	} else {
		c.add(ev)
	}
	if c.n == 0 || c.minOK && ev.at < c.min {
		c.min, c.minOK = ev.at, true
	}
	c.n++
}

// add files ev in a free node, or a new one.
func (c *calendar) add(ev event) {
	k := c.free
	if k != 0 {
		c.free = c.nodes[k].next
	} else {
		if len(c.nodes) == 0 {
			c.nodes = append(c.nodes, calNode{})
		}
		k = int32(len(c.nodes))
		c.nodes = append(c.nodes, calNode{})
	}
	c.nodes[k].ev = ev
	c.file(k)
}

// file appends node k to the tail of its bucket.
func (c *calendar) file(k int32) {
	b := bits.Len64(uint64(c.nodes[k].ev.at ^ c.last))
	c.nodes[k].next = 0
	if c.mask&(1<<b) == 0 {
		c.head[b] = k
		c.mask |= 1 << b
	} else {
		c.nodes[c.tail[b]].next = k
	}
	c.tail[b] = k
}

// earliest returns the earliest queued time without popping: last
// itself never moves here, so a later push below the answer stays
// legal. The calendar must not be empty.
func (c *calendar) earliest() Time {
	if !c.minOK {
		c.min, c.minOK = c.last, true
		if c.mask&1 == 0 {
			k := c.head[bits.TrailingZeros64(c.mask)]
			c.min = c.nodes[k].ev.at
			for k = c.nodes[k].next; k != 0; k = c.nodes[k].next {
				c.min = min(c.min, c.nodes[k].ev.at)
			}
		}
	}
	return c.min
}

// pop removes and returns the earliest event, clearing its node so the
// calendar does not pin dead procs or closures. The calendar must not
// be empty.
func (c *calendar) pop() event {
	c.n--
	if c.mask == 0 {
		ev := c.solo
		c.solo, c.last, c.minOK = event{}, ev.at, false
		return ev
	}
	b := bits.TrailingZeros64(c.mask)
	k := c.head[b]
	if b > 0 && c.nodes[k].next != 0 {
		// Settle the lowest bucket. (An event alone in it is the earliest
		// and pops from where it is.)
		c.last = c.earliest()
		c.mask &^= 1 << b
		for k != 0 {
			next := c.nodes[k].next
			c.file(k)
			k = next
		}
		b, k = 0, c.head[0]
	}
	nd := &c.nodes[k]
	ev := nd.ev
	if c.head[b] = nd.next; nd.next == 0 {
		c.mask &^= 1 << b
	}
	*nd = calNode{next: c.free}
	c.free = k
	c.last = ev.at
	c.min, c.minOK = c.last, c.mask&1 != 0
	return ev
}
