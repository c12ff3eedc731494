package sim

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
