package sim

// Queue is an unbounded FIFO of arbitrary items with blocking Get,
// usable only from inside a running simulation. Multiple getters are
// served in the order they blocked.
type Queue[T any] struct {
	eng     *Engine
	items   FIFO[T]
	getters FIFO[*Proc]
}

// NewQueue returns an empty queue on engine e.
func NewQueue[T any](e *Engine) *Queue[T] {
	return &Queue[T]{eng: e}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.Len() }

// Put appends v and wakes the oldest blocked getter, if any. It may be
// called from process or callback context.
func (q *Queue[T]) Put(v T) {
	q.items.Push(v)
	if q.getters.Len() > 0 {
		q.getters.Pop().wake()
	}
}

// TryGet removes and returns the head item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	var zero T
	if q.items.Len() == 0 {
		return zero, false
	}
	return q.items.Pop(), true
}

// Get blocks p until an item is available, then removes and returns it.
func (q *Queue[T]) Get(p *Proc) T {
	for {
		if v, ok := q.TryGet(); ok {
			return v
		}
		q.getters.Push(p)
		p.park()
	}
}

// Peek returns the head item without removing it.
func (q *Queue[T]) Peek() (T, bool) {
	var zero T
	if q.items.Len() == 0 {
		return zero, false
	}
	return q.items.Peek(), true
}

// Semaphore is a one-permit FIFO lock for a resource one process
// holds at a time (the delegation command slot). Acquire blocks in FIFO
// order.
type Semaphore struct {
	eng     *Engine
	held    bool
	waiters FIFO[*Proc]
}

// NewSemaphore returns an unheld lock on engine e.
func NewSemaphore(e *Engine) *Semaphore {
	return &Semaphore{eng: e}
}

// TryAcquire takes the lock without blocking.
func (s *Semaphore) TryAcquire() bool {
	if s.held {
		return false
	}
	s.held = true
	return true
}

// Acquire blocks p until it holds the lock. A blocked process is handed
// the lock by Release, so later arrivals cannot overtake it.
func (s *Semaphore) Acquire(p *Proc) {
	if !s.TryAcquire() {
		s.waiters.Push(p)
		p.park()
	}
}

// Release frees the lock, or passes it straight to the oldest waiter.
func (s *Semaphore) Release() {
	if s.waiters.Len() == 0 {
		s.held = false
		return
	}
	s.waiters.Pop().wake()
}
