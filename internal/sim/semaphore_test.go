package sim

import (
	"fmt"
	"strings"
	"testing"
)

// One holder at a time, and the lock passes to the waiters in the
// order they blocked.
func TestSemaphoreLimitsConcurrency(t *testing.T) {
	e := NewEngine()
	var s Semaphore
	inFlight, maxInFlight := 0, 0
	var order []int
	for i := 0; i < 6; i++ {
		e.Spawn("w", func(p *Proc) {
			s.Acquire(p)
			order = append(order, i)
			inFlight++
			maxInFlight = max(maxInFlight, inFlight)
			p.Sleep(Microsecond)
			inFlight--
			s.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInFlight != 1 {
		t.Fatalf("max in flight %d, want 1", maxInFlight)
	}
	if fmt.Sprint(order) != "[0 1 2 3 4 5]" {
		t.Fatalf("served %v, want arrival order", order)
	}
	if !s.TryAcquire() {
		t.Fatal("lock still held after every holder released it")
	}
}

// Release hands the lock to the oldest waiter: a process that releases
// and acquires again in the same instant queues behind it.
func TestSemaphoreHandsOffInOrder(t *testing.T) {
	e := NewEngine()
	var s Semaphore
	var order []string
	e.Spawn("a", func(p *Proc) {
		s.Acquire(p)
		p.Sleep(Microsecond) // b and c block meanwhile
		s.Release()
		s.Acquire(p)
		order = append(order, "a")
		s.Release()
	})
	for _, name := range []string{"b", "c"} {
		e.Spawn(name, func(p *Proc) {
			s.Acquire(p)
			order = append(order, name)
			s.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, " "); got != "b c a" {
		t.Fatalf("order %q, want \"b c a\"", got)
	}
	if !s.TryAcquire() {
		t.Fatal("lock still held after every holder released it")
	}
}

func TestSemaphoreTryAcquire(t *testing.T) {
	var s Semaphore
	if !s.TryAcquire() {
		t.Fatal("first TryAcquire failed")
	}
	if s.TryAcquire() {
		t.Fatal("second TryAcquire succeeded")
	}
	s.Release()
	if !s.TryAcquire() {
		t.Fatal("TryAcquire after Release failed")
	}
}
