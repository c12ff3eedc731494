package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestQueueFIFO(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Get(p))
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(Microsecond)
			q.Put(i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order %v", got)
		}
	}
}

func TestQueueTryGetAndPeek(t *testing.T) {
	e := NewEngine()
	q := NewQueue[string](e)
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue succeeded")
	}
	if _, ok := q.Peek(); ok {
		t.Fatal("Peek on empty queue succeeded")
	}
	q.Put("x")
	q.Put("y")
	if v, ok := q.Peek(); !ok || v != "x" {
		t.Fatalf("Peek=%q,%v", v, ok)
	}
	if q.Len() != 2 {
		t.Fatalf("Len=%d", q.Len())
	}
	if v, ok := q.TryGet(); !ok || v != "x" {
		t.Fatalf("TryGet=%q,%v", v, ok)
	}
	if v, ok := q.TryGet(); !ok || v != "y" {
		t.Fatalf("TryGet=%q,%v", v, ok)
	}
}

func TestQueueMultipleGettersServedInOrder(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var servedTo []string
	spawn := func(name string) {
		e.Spawn(name, func(p *Proc) {
			q.Get(p)
			servedTo = append(servedTo, name)
		})
	}
	spawn("g1")
	spawn("g2")
	e.Spawn("producer", func(p *Proc) {
		p.Sleep(Microsecond)
		q.Put(1)
		p.Sleep(Microsecond)
		q.Put(2)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(servedTo) != 2 || servedTo[0] != "g1" || servedTo[1] != "g2" {
		t.Fatalf("served %v, want [g1 g2]", servedTo)
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, 2)
	inFlight, maxInFlight := 0, 0
	for i := 0; i < 6; i++ {
		e.Spawn("w", func(p *Proc) {
			s.Acquire(p)
			inFlight++
			if inFlight > maxInFlight {
				maxInFlight = inFlight
			}
			p.Sleep(Microsecond)
			inFlight--
			s.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInFlight != 2 {
		t.Fatalf("max in flight %d, want 2", maxInFlight)
	}
	if s.Free() != 2 {
		t.Fatalf("free %d, want 2", s.Free())
	}
}

// Release hands the permit to the oldest waiter: a process that releases
// and acquires again in the same instant queues behind it.
func TestSemaphoreHandsOffInOrder(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, 1)
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
	if got := strings.Join(order, " "); got != "b c a" || s.Free() != 1 {
		t.Fatalf("order %q with %d free, want \"b c a\" with 1", got, s.Free())
	}
}

func TestSemaphoreTryAcquire(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, 1)
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

// Property: a queue delivers exactly the produced sequence for any
// production schedule.
func TestQuickQueueSequence(t *testing.T) {
	f := func(vals []int32, gaps []uint8) bool {
		e := NewEngine()
		q := NewQueue[int32](e)
		var got []int32
		e.Spawn("consumer", func(p *Proc) {
			for range vals {
				got = append(got, q.Get(p))
			}
		})
		e.Spawn("producer", func(p *Proc) {
			for i, v := range vals {
				var g Duration
				if len(gaps) > 0 {
					g = Duration(gaps[i%len(gaps)])
				}
				p.Sleep(g)
				q.Put(v)
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
