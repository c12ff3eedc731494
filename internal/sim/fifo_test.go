package sim

import "testing"

// TestFIFOOrderAcrossWrapAndGrowth drives the queue through bursts that
// wrap the ring and grow it while wrapped; items come out in push order.
func TestFIFOOrderAcrossWrapAndGrowth(t *testing.T) {
	var q FIFO[int]
	next, want := 0, 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			q.Push(next)
			next++
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			if got := q.Peek(); got != want {
				t.Fatalf("Peek = %d, want %d", got, want)
			}
			if got := q.Pop(); got != want {
				t.Fatalf("Pop = %d, want %d", got, want)
			}
			want++
		}
		if q.Len() != next-want {
			t.Fatalf("Len = %d, want %d", q.Len(), next-want)
		}
	}
	for _, step := range [][2]int{{3, 3}, {3, 2}, {3, 3}, {4, 1}, {9, 5}, {30, 37}, {1, 2}} {
		push(step[0])
		pop(step[1])
	}
	if q.Len() != 0 || q.Cap() != 64 {
		t.Errorf("Len = %d, Cap = %d after a peak of 38 items, want 0 and 64", q.Len(), q.Cap())
	}
}

// TestFIFOReusesItsBacking: a queue that drains and refills allocates
// nothing once it has reached its working size — what the sliding-slice
// idiom it replaced could not do.
func TestFIFOReusesItsBacking(t *testing.T) {
	var q FIFO[*int]
	v := new(int)
	cycle := func() {
		for i := 0; i < 3; i++ {
			q.Push(v)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
	cycle()
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("%v allocations per drain-and-refill cycle, want 0", got)
	}
	if q.Cap() != fifoMinCap {
		t.Errorf("Cap = %d after holding 3 items, want %d", q.Cap(), fifoMinCap)
	}
}

// TestFIFOPopClearsTheSlot: a popped pointer is not kept reachable from
// the backing array.
func TestFIFOPopClearsTheSlot(t *testing.T) {
	var q FIFO[*int]
	q.Push(new(int))
	q.Push(new(int))
	q.Pop()
	q.Pop()
	for i, p := range q.buf {
		if p != nil {
			t.Errorf("slot %d still holds a popped item", i)
		}
	}
}

func TestFIFOEmptyPanics(t *testing.T) {
	for name, op := range map[string]func(q *FIFO[int]){
		"Pop":  func(q *FIFO[int]) { q.Pop() },
		"Peek": func(q *FIFO[int]) { q.Peek() },
	} {
		for _, used := range []bool{false, true} {
			var q FIFO[int]
			if used { // an empty queue that has a backing array
				q.Push(1)
				q.Pop()
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s on an empty FIFO (used: %v) did not panic", name, used)
					}
				}()
				op(&q)
			}()
		}
	}
}

// TestPool: Get hands back the most recently Put record, reports false
// on an empty pool, and a pool whose owner makes a record only on a miss
// never holds more than were out at once.
func TestPool(t *testing.T) {
	var p Pool[*int]
	if v, ok := p.Get(); ok || v != nil {
		t.Fatalf("Get on an empty pool returned %v, %v", v, ok)
	}
	take := func() *int {
		if v, ok := p.Get(); ok {
			return v
		}
		return new(int)
	}
	a, b, c := take(), take(), take()
	p.Put(a)
	p.Put(b)
	p.Put(c)
	for _, want := range []*int{c, b, a} {
		if got, ok := p.Get(); !ok || got != want {
			t.Fatal("Get is not last-in first-out")
		}
	}
	if _, ok := p.Get(); ok {
		t.Fatal("Get on a drained pool succeeded")
	}
	// Three were out at once; any number of take/Put rounds later the
	// pool still holds three, and its vacated slots pin nothing.
	p.Put(a)
	p.Put(b)
	p.Put(c)
	for i := 0; i < 100; i++ {
		x, y := take(), take()
		p.Put(y)
		p.Put(x)
	}
	if len(p) != 3 {
		t.Fatalf("pool holds %d records, want the 3 that were ever out at once", len(p))
	}
	x := take()
	if spare := p[:3][2]; spare != nil {
		t.Fatal("Get left the record it handed out in the vacated slot")
	}
	p.Put(x)
}

// mailbox is the producer/consumer shape the tests build from the
// engine's parts: items wait in a FIFO, getters on a Signal.
type mailbox[T any] struct {
	items FIFO[T]
	sig   *Signal
}

func newMailbox[T any](e *Engine) *mailbox[T] { return &mailbox[T]{sig: NewSignal(e)} }

func (m *mailbox[T]) put(v T) { m.items.Push(v); m.sig.Broadcast() }

func (m *mailbox[T]) get(p *Proc) T {
	for m.items.Len() == 0 {
		m.sig.Wait(p)
	}
	return m.items.Pop()
}
