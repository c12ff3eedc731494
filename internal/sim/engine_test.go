package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Spawn("a", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 5*Microsecond {
		t.Fatalf("woke at %v, want 5µs", at)
	}
	if e.Now() != 5*Microsecond {
		t.Fatalf("engine now %v, want 5µs", e.Now())
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", func(p *Proc) {
		p.Sleep(-3)
		if p.Now() != 0 {
			t.Errorf("negative sleep advanced clock to %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() string {
		e := NewEngine()
		var log []string
		for _, nm := range []string{"a", "b"} {
			name := nm
			e.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(Microsecond)
					log = append(log, fmt.Sprintf("%s@%v", name, p.Now()))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(log, " ")
	}
	first := run()
	for i := 0; i < 10; i++ {
		if got := run(); got != first {
			t.Fatalf("nondeterministic schedule:\n%s\nvs\n%s", first, got)
		}
	}
	want := "a@1µs b@1µs a@2µs b@2µs a@3µs b@3µs"
	if first != want {
		t.Fatalf("schedule %q, want %q", first, want)
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 20; i++ {
		i := i
		e.At(7, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order %v, want ascending", order)
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	never := NewSignal(e)
	e.Spawn("stuck-proc", func(p *Proc) {
		never.Wait(p) // never broadcast
	})
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("got %v, want DeadlockError", err)
	}
	if len(de.Stuck) != 1 || de.Stuck[0] != "stuck-proc" {
		t.Fatalf("stuck list %v", de.Stuck)
	}
	if !strings.Contains(de.Error(), "stuck-proc") {
		t.Fatalf("error text %q lacks proc name", de.Error())
	}
}

func TestPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("boom", func(p *Proc) {
		p.Sleep(1)
		panic("kaboom")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("got %v, want panic error", err)
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Spawn("loop", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
			n++
			if n == 5 {
				e.Stop()
			}
		}
	})
	if err := e.Run(); err != ErrStopped {
		t.Fatalf("got %v, want ErrStopped", err)
	}
	if n != 5 {
		t.Fatalf("ran %d iterations, want 5", n)
	}
}

// waitGoroutines waits for the live goroutine count to fall back to
// base: every process coroutine is a goroutine to the runtime until
// killAll's stop (or its own return) ends it.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for spins := 0; runtime.NumGoroutine() > base; spins++ {
		if spins == 1<<20 {
			t.Fatalf("%d goroutines still live, %d before the run", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// A run that fails must unwind every process it leaves unfinished:
// blocked, sleeping, and spawned but never dispatched. Each -deep row
// fails on top of a chain of 99 processes blocked below it.
func TestFailedRunLeavesNoGoroutines(t *testing.T) {
	const procs = 100
	cases := []struct {
		name  string
		first func(e *Engine, p *Proc) // body of the process named "first"
		want  func(err error) bool
	}{
		{"deadlock", func(e *Engine, p *Proc) {}, func(err error) bool {
			de, ok := err.(*DeadlockError)
			return ok && len(de.Stuck) == procs-1
		}},
		{"stop", func(e *Engine, p *Proc) { e.Stop(); p.Sleep(1) }, func(err error) bool {
			return err == ErrStopped
		}},
		{"panic", func(e *Engine, p *Proc) { p.Sleep(1); panic("kaboom") }, func(err error) bool {
			return err != nil && strings.Contains(err.Error(), "kaboom")
		}},
	}
	for _, tc := range cases {
		for _, deep := range []bool{false, true} {
			name, depth := tc.name, 0
			if deep {
				name, depth = name+"-deep", procs-1
			}
			t.Run(name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				e := NewEngine()
				never := NewSignal(e)
				var f atFailure
				first := func(p *Proc) { f.see(e, p); tc.first(e, p) }
				if deep {
					deepChain(e, procs-1, never.Wait)
					e.Spawn("first", func(p *Proc) { p.Sleep(procs); first(p) })
				} else {
					e.Spawn("first", first)
					for i := 1; i < procs; i++ {
						e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
							if p.ID()%2 == 0 {
								p.Sleep(Microsecond)
							}
							never.Wait(p)
						})
					}
				}
				if err := e.Run(); !tc.want(err) {
					t.Fatalf("unexpected run result: %v", err)
				}
				f.check(t, e, depth)
				waitGoroutines(t, base)
			})
		}
	}
}

func TestSpawnFromInsideSimulation(t *testing.T) {
	e := NewEngine()
	var childAt Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(3 * Microsecond)
		e.Spawn("child", func(c *Proc) {
			childAt = c.Now()
		})
		p.Sleep(Microsecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != 3*Microsecond {
		t.Fatalf("child started at %v, want 3µs", childAt)
	}
}

func TestYieldRunsOthersFirst(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "a1 b1 a2"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
}

func TestSignalEdgeTriggered(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	wakes := 0
	e.Spawn("waiter", func(p *Proc) {
		for i := 0; i < 3; i++ {
			s.Wait(p)
			wakes++
		}
	})
	e.Spawn("caster", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(Microsecond)
			s.Broadcast()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wakes != 3 {
		t.Fatalf("wakes=%d, want 3", wakes)
	}
}

func TestBroadcastWithNoWaitersIsNoop(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	s.Broadcast()
	e.Spawn("a", func(p *Proc) { p.Sleep(1) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.5µs"},
		{2500000, "2.5ms"},
		{3 * Second, "3s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String()=%q, want %q", int64(c.t), got, c.want)
		}
	}
}

// Property: for any set of non-negative sleep offsets, processes wake in
// global timestamp order and the engine clock ends at the max.
func TestQuickSleepOrdering(t *testing.T) {
	f := func(offsets []uint16) bool {
		if len(offsets) == 0 {
			return true
		}
		if len(offsets) > 50 {
			offsets = offsets[:50]
		}
		e := NewEngine()
		var wakes []Time
		var max Time
		for i, off := range offsets {
			d := Duration(off)
			if d > max {
				max = d
			}
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(d)
				wakes = append(wakes, p.Now())
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i := 1; i < len(wakes); i++ {
			if wakes[i] < wakes[i-1] {
				return false
			}
		}
		return e.Now() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
