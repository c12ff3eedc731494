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

// Semaphore is a counting semaphore for modeling limited resources
// (DMA channels, QP slots). Acquire blocks in FIFO order.
type Semaphore struct {
	eng     *Engine
	free    int
	waiters FIFO[*Proc]
}

// NewSemaphore returns a semaphore with n permits.
func NewSemaphore(e *Engine, n int) *Semaphore {
	if n < 0 {
		panic("sim: negative semaphore")
	}
	return &Semaphore{eng: e, free: n}
}

// Free returns the number of available permits.
func (s *Semaphore) Free() int { return s.free }

// TryAcquire takes a permit without blocking.
func (s *Semaphore) TryAcquire() bool {
	if s.free > 0 {
		s.free--
		return true
	}
	return false
}

// Acquire blocks p until a permit is available. A blocked process is
// handed its permit by Release, so later arrivals cannot overtake it.
func (s *Semaphore) Acquire(p *Proc) {
	if !s.TryAcquire() {
		s.waiters.Push(p)
		p.park()
	}
}

// Release returns a permit, or passes it straight to the oldest waiter.
func (s *Semaphore) Release() {
	if s.waiters.Len() == 0 {
		s.free++
		return
	}
	s.waiters.Pop().wake()
}
