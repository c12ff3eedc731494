package sim

import (
	"errors"
	"runtime"
	"testing"
)

// parkThree leaves three processes waiting three different ways: blocked
// on a signal nobody broadcasts, asleep far in the future, and a daemon
// blocked on an empty mailbox.
func parkThree(e *Engine) {
	never := new(Signal)
	q := new(mailbox[int])
	e.Spawn("blocked", func(p *Proc) { never.Wait(p) })
	e.Spawn("asleep", func(p *Proc) { p.Sleep(Second) })
	e.Spawn("daemon", func(p *Proc) {
		p.MarkDaemon()
		for {
			q.get(p)
		}
	})
}

// chainShapes are the two shapes every failure test runs in: the
// processes as the test spawns them, and the same with chainLinks more
// blocked in the chain below the failure.
var chainShapes = []struct {
	name  string
	links int
}{{"flat", 0}, {"deep", chainLinks}}

// A panicking callback fires in whichever body runs the calendar — here
// the last process to park — and must still come out of Run as a
// callback's panic, with every process unwound.
func TestCallbackPanicIsTypedAndUnwinds(t *testing.T) {
	for _, shape := range chainShapes {
		t.Run(shape.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := NewEngine()
			parkThree(e)
			deepChain(e, shape.links, new(Signal).Wait)
			ran := false
			var f atFailure
			e.At(5*Microsecond, func() { f.see(e, nil); panic("cb-boom") })
			e.At(6*Microsecond, func() { ran = true })
			err := e.Run()
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Proc != "" || pe.At != 5*Microsecond || pe.Value != "cb-boom" {
				t.Fatalf("got %#v, want a callback PanicError at 5µs", err)
			}
			if want := "sim: callback at 5µs panicked: cb-boom"; err.Error() != want {
				t.Fatalf("message %q, want %q", err.Error(), want)
			}
			if ran {
				t.Fatal("calendar kept running after the callback panicked")
			}
			f.check(t, e, shape.links-1)
			waitGoroutines(t, base)
		})
	}
}

// A process's panic keeps its own message and type fields, also when
// the process was resumed by another process's loop.
func TestProcPanicIsTyped(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	parkThree(e)
	e.Spawn("boom", func(p *Proc) {
		p.Sleep(2 * Microsecond)
		panic("kaboom")
	})
	e.At(Microsecond, func() {})
	err := e.Run()
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Proc != "boom" || pe.At != 2*Microsecond || pe.Value != "kaboom" {
		t.Fatalf("got %#v, want boom's PanicError at 2µs", err)
	}
	if want := `sim: process "boom" panicked: kaboom`; err.Error() != want {
		t.Fatalf("message %q, want %q", err.Error(), want)
	}
	waitGoroutines(t, base)
}

// Current() is nil inside every callback and the dispatched process
// inside process code, whichever coroutine happens to run the calendar.
func TestCurrentFollowsTheBaton(t *testing.T) {
	e := NewEngine()
	type obs struct {
		where string
		got   *Proc
		want  *Proc
	}
	var seen []obs
	see := func(where string, want *Proc) {
		seen = append(seen, obs{where, e.Current(), want})
	}
	cb := func(where string) func() { return func() { see(where, nil) } }

	e.At(0, cb("callback before any process, on Run's goroutine"))
	var a, b *Proc
	a = e.Spawn("a", func(p *Proc) {
		see("first dispatch", a)
		e.After(Microsecond, cb("callback inside a's sleep window, on a's goroutine"))
		p.Sleep(2 * Microsecond)
		see("self-resumed, no switch", a)
		b = e.Spawn("b", func(p *Proc) {
			p.MarkDaemon()
			see("first dispatch, by a's loop", b)
			e.After(Microsecond, cb("callback while both are waiting, on b's goroutine"))
			new(Signal).Wait(p)
		})
		p.Sleep(10 * Microsecond)
		see("resumed by b's loop", a)
		e.After(Microsecond, cb("callback after a returned, on a's dying goroutine"))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 8 {
		t.Fatalf("%d observations, want 8", len(seen))
	}
	for _, o := range seen {
		if o.got != o.want {
			t.Errorf("%s: Current() = %v, want %v", o.where, o.got, o.want)
		}
	}
	if e.Current() != nil {
		t.Errorf("after Run: Current() = %v, want nil", e.Current())
	}
}

// Stop ends the run with ErrStopped from process and callback context
// alike: nothing later in the calendar runs and every process unwinds.
func TestStopFromProcAndCallback(t *testing.T) {
	cases := []struct {
		name string
		arm  func(e *Engine, f *atFailure)
	}{
		{"proc", func(e *Engine, f *atFailure) {
			e.Spawn("stopper", func(p *Proc) {
				p.Sleep(3 * Microsecond)
				f.see(e, p)
				e.Stop()
			})
		}},
		{"callback", func(e *Engine, f *atFailure) {
			e.At(3*Microsecond, func() { f.see(e, nil); e.Stop() })
		}},
	}
	for _, tc := range cases {
		for _, shape := range chainShapes {
			name := tc.name
			if shape.links > 0 {
				name += "-" + shape.name
			}
			t.Run(name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				e := NewEngine()
				deepChain(e, shape.links, new(Signal).Wait)
				parkThree(e)
				ticks := 0
				e.Spawn("ticker", func(p *Proc) {
					for {
						p.Sleep(Microsecond)
						ticks++
					}
				})
				late := false
				e.At(4*Microsecond, func() { late = true })
				var f atFailure
				tc.arm(e, &f)
				if err := e.Run(); err != ErrStopped {
					t.Fatalf("got %v, want ErrStopped", err)
				}
				if e.Now() != 3*Microsecond || ticks != 2 || late {
					t.Fatalf("stopped at %v after %d ticks (late callback ran: %v), want 3µs, 2, false", e.Now(), ticks, late)
				}
				f.check(t, e, shape.links-1)
				waitGoroutines(t, base)
			})
		}
	}
}

func TestSpawnFromCallback(t *testing.T) {
	e := NewEngine()
	var child *Proc
	var childAt Time
	var current *Proc
	e.Spawn("sleeper", func(p *Proc) { p.Sleep(10 * Microsecond) })
	e.At(3*Microsecond, func() {
		child = e.Spawn("child", func(c *Proc) {
			childAt, current = c.Now(), e.Current()
			c.Sleep(Microsecond)
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != 3*Microsecond || current != child {
		t.Fatalf("child started at %v with Current() = %v, want 3µs and the child", childAt, current)
	}
}

// A clean run ends with its daemons still blocked; Run unwinds them too.
func TestCleanRunLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	q := new(mailbox[int])
	served := 0
	for i := 0; i < 4; i++ {
		e.Spawn("daemon", func(p *Proc) {
			p.MarkDaemon()
			for {
				served += q.get(p)
			}
		})
	}
	e.Spawn("client", func(p *Proc) {
		for i := 0; i < 10; i++ {
			q.put(1)
			p.Sleep(Microsecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if served != 10 {
		t.Fatalf("served %d, want 10", served)
	}
	waitGoroutines(t, base)
	// The daemons are gone for good: the engine still runs, but only
	// what is spawned from here on.
	e.Spawn("late", func(p *Proc) { q.put(1); p.Sleep(Microsecond) })
	if err := e.Run(); err != nil || served != 10 {
		t.Fatalf("second run: err %v, served %d; want nil and 10 (no daemon left to serve)", err, served)
	}
	waitGoroutines(t, base)
}

// A process that blocks again in a deferred call while killAll unwinds
// it moves nothing: the run ends at the clock, error and fingerprint of
// a twin run without the defer, and no coroutine outlives Run. In the
// -deep rows every process in a chain of 65 defers a Sleep too, and the
// run ends with 65 of them blocked in the chain.
func TestUnwindingProcessMovesNothing(t *testing.T) {
	run := func(stop bool, links int, deferSleep bool) (*Engine, *atFailure, error) {
		e := NewEngine()
		never := new(Signal)
		stuck := func(p *Proc) {
			if deferSleep {
				defer p.Sleep(10 * Microsecond)
			}
			never.Wait(p)
		}
		e.Spawn("stuck", stuck)
		deepChain(e, links, stuck)
		f := new(atFailure)
		e.At(Duration(links), func() { f.see(e, nil) }) // the last event before a deadlock
		if stop {
			e.At(Microsecond, func() { f.see(e, nil); e.Stop() })
		}
		return e, f, e.Run()
	}
	for _, tc := range []struct {
		name string
		stop bool
	}{{"deadlock", false}, {"stop", true}} {
		for _, shape := range chainShapes {
			name := tc.name
			if shape.links > 0 {
				name += "-" + shape.name
			}
			t.Run(name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				twin, _, twinErr := run(tc.stop, shape.links, false)
				e, f, err := run(tc.stop, shape.links, true)
				if err == nil || err.Error() != twinErr.Error() {
					t.Fatalf("got %v, twin without the defer got %v", err, twinErr)
				}
				var de *DeadlockError
				if errors.As(err, &de) && de.Now != twin.Now() {
					t.Fatalf("deadlock reported at %v, twin at %v", de.Now, twin.Now())
				}
				if e.Now() != twin.Now() || e.Fingerprint() != twin.Fingerprint() {
					t.Fatalf("ended at %v with fingerprint %#x, twin at %v with %#x",
						e.Now(), e.Fingerprint(), twin.Now(), twin.Fingerprint())
				}
				f.check(t, e, shape.links)
				waitGoroutines(t, base)
			})
		}
	}
}

// runtime.Goexit in a process body (t.FailNow, say) is that process's
// failure. iter.Pull rethrows it in every body below it in the chain and
// at last in Run's goroutine, so Run never returns: nothing later in the
// calendar runs on the way down, the error is recorded on the engine,
// and Run's deferred killAll leaves no coroutine behind.
func TestGoexitInProcessEndsTheRun(t *testing.T) {
	for _, shape := range chainShapes {
		t.Run(shape.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := NewEngine()
			never := new(Signal)
			// The sleeper's Yield unwinds the chain t=0 built down to
			// it, leaving the waiter suspended: killAll's to unwind.
			e.Spawn("sleeper", func(p *Proc) { p.Yield(); p.Sleep(10 * Microsecond) })
			deepChain(e, shape.links, never.Wait)
			e.Spawn("waiter", never.Wait)
			var f atFailure
			e.Spawn("quitter", func(p *Proc) {
				p.Sleep(5 * Microsecond)
				f.see(e, p)
				runtime.Goexit()
			})
			ran := false
			e.At(6*Microsecond, func() { ran = true })
			// Run gets a goroutine of its own: the rethrown Goexit
			// must end it, and this test must outlive it.
			done := make(chan error)
			go func() {
				defer close(done)
				done <- e.Run()
			}()
			if err, returned := <-done; returned {
				t.Fatalf("Run returned %v, want its goroutine ended by the rethrown Goexit", err)
			}
			var pe *PanicError
			if !errors.As(e.err, &pe) || pe.Proc != "quitter" || pe.At != 5*Microsecond {
				t.Fatalf("recorded error %#v, want quitter's at 5µs", e.err)
			}
			if ran {
				t.Fatal("the calendar kept running after the Goexit")
			}
			f.check(t, e, shape.links)
			waitGoroutines(t, base)
		})
	}
}

// Two processes with interleaved Sleep deadlines, as the benchmark's
// sim.handoff_ns driver runs them: every Sleep misses the lookahead
// fast path and parks, and the other process is either blocked below
// the parker or free above it: one coroutine switch per dispatch.
func BenchmarkHandoff(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	sleepers(e, 2, b.N/2)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// 256 processes in round robin: the next process is never the one that
// resumed the parker, so each cycle resumes 255 processes up the chain
// and then unwinds it 255 deep, just under two switches per dispatch.
func BenchmarkHandoffRing256(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	sleepers(e, 256, b.N/256)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// One process whose Sleep always has a callback inside its window: it
// parks, runs the callback in its own loop and wakes itself, with no
// switch.
func BenchmarkSelfResume(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	tick := func() {}
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			e.After(1, tick)
			p.Sleep(2)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// One Signal.Broadcast per step to eight waiting processes; the unit is
// one wake-up.
func BenchmarkSignalFanout8(b *testing.B) {
	b.ReportAllocs()
	const waiters = 8
	steps := b.N / waiters
	e := NewEngine()
	sig := new(Signal)
	for k := 0; k < waiters; k++ {
		e.Spawn("waiter", func(p *Proc) {
			for i := 0; i < steps; i++ {
				sig.Wait(p)
			}
		})
	}
	e.Spawn("ringer", func(p *Proc) {
		for i := 0; i < steps; i++ {
			p.Sleep(1)
			sig.Broadcast()
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
