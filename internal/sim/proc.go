//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated process: a coroutine that runs only when the engine
// dispatches it and that advances virtual time by sleeping or blocking.
// All Proc methods must be called from the process's own body while it
// is running.
type Proc struct {
	eng     *Engine
	name    string
	id      int
	resume  func() (struct{}, bool) // switch into the process
	suspend func(struct{}) bool     // switch back out; false once stopped
	stop    func()                  // unwind it from outside

	finished, dead, daemon bool
	blocked                bool // in park, resuming the process above it in the chain
}

// Spawn creates a new process named name running fn and schedules its
// first activation at the current virtual time. It may be called before
// Run or from inside a running simulation. The process is an iter.Pull
// coroutine: the tree's one use of package iter, hence this file's build
// tag (the benchmark module pins go.mod's go line at 1.22).
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, id: len(e.procs)}
	p.resume, p.stop = iter.Pull(func(suspend func(struct{}) bool) {
		p.suspend = suspend
		p.run(fn)
	})
	e.procs = append(e.procs, p)
	e.schedule(e.now, p, nil)
	return p
}

// MarkDaemon excludes this process from deadlock detection: a daemon
// blocked forever (e.g. a delegation server waiting for commands) is
// normal program shape, not a hang.
func (p *Proc) MarkDaemon() { p.daemon = true }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// ID returns the process's engine-unique id.
func (p *Proc) ID() int { return p.id }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// run is the coroutine body backing the process. A process that ends
// runs the calendar on to the next process and leaves it in e.handoff
// for the body below it in the chain, where its coroutine returns. A
// body that neither returned nor panicked called runtime.Goexit
// (t.FailNow, say), which iter.Pull rethrows in every body below it:
// that is the run's error, so next dispatches nothing more.
func (p *Proc) run(fn func(p *Proc)) {
	returned := false
	defer func() {
		r := recover()
		p.finished = true
		if p.dead { // unwound by killAll's stop: the run is over
			return
		}
		if r == nil && !returned {
			r = "runtime.Goexit"
		}
		if r != nil {
			p.eng.fail(p.name, r)
		}
		p.eng.handoff = p.eng.next()
	}()
	fn(p)
	returned = true
}

// errProcKilled is thrown to unwind a process the engine abandoned.
var errProcKilled = fmt.Errorf("sim: proc killed")

// live panics errProcKilled in a process killAll is unwinding, so that
// a deferred Sleep, Yield or wait moves neither the clock, the
// fingerprint nor the calendar, and does not block again.
func (p *Proc) live() {
	if p.dead {
		panic(errProcKilled)
	}
}

// park gives up the processor until this process's next calendar event:
// one Sleep or Yield scheduled, or one some other party will schedule
// with wake. The parker runs the calendar itself. If the next process
// event is its own it returns with no switch. If that process is free
// (suspended), the parker resumes it on top of itself and stays blocked
// in the call: one switch. If it is blocked below in the chain, or the
// run is over, the parker leaves it in e.handoff and suspends, and the
// body below carries on from there: one switch per level unwound. A
// suspend that returns false is killAll's stop unwinding this process.
func (p *Proc) park() {
	p.live()
	e := p.eng
	for next := e.next(); next != p; next = e.handoff {
		if next == nil || next.blocked {
			e.handoff = next
			e.switches++
			if !p.suspend(struct{}{}) {
				panic(errProcKilled)
			}
			return
		}
		p.blocked = true
		e.switches++
		next.resume()
		p.blocked = false
	}
}

// Sleep advances this process's virtual clock by d. Other events run in
// the meantime. Negative durations are treated as zero.
//
// Lookahead fast path: when no calendar event falls inside the sleep
// window, nothing can observe the intermediate instants, so the clock
// advances inline without a schedule+park round-trip. The advance is
// folded into the fingerprint (fastPathPID sentinel) so different sleep
// schedules stay distinguishable. This is what keeps thousand-rank
// runs — millions of staging-copy sleeps — wall-clock sane.
func (p *Proc) Sleep(d Duration) {
	p.live()
	if d < 0 {
		d = 0
	}
	e := p.eng
	if !e.stopped && (e.queue.n == 0 || e.queue.earliest() > e.now+d) {
		e.now += d
		e.fpMix(uint64(e.now))
		e.fpMix(fastPathPID)
		e.fpMix(uint64(p.id))
		return
	}
	e.schedule(e.now+d, p, nil)
	p.park()
}

// Yield reschedules the process at the current time, letting every other
// event already queued for this instant run first. When nothing is
// queued for this instant the round-trip is a no-op and is skipped.
func (p *Proc) Yield() {
	p.live()
	e := p.eng
	if !e.stopped && (e.queue.n == 0 || e.queue.earliest() > e.now) {
		return
	}
	e.schedule(e.now, p, nil)
	p.park()
}

// wake schedules the process to resume at the current virtual time.
func (p *Proc) wake() {
	p.eng.schedule(p.eng.now, p, nil)
}

// Signal is an edge-triggered broadcast: Wait blocks until the next
// Broadcast after the wait began. It is the engine's condition variable;
// because the engine is cooperative there is no lost-wakeup race as long
// as the caller re-checks its predicate after waking. The zero value is
// ready to use: a wake goes through the waiting Proc's own engine.
type Signal struct {
	waiters []*Proc
}

// NewSignal returns a new Signal. The engine is not needed (the zero
// value is ready); the parameter remains for existing callers.
func NewSignal(*Engine) *Signal { return new(Signal) }

// Broadcast wakes every currently blocked waiter.
func (s *Signal) Broadcast() {
	for _, w := range s.waiters {
		w.wake()
	}
	s.waiters = s.waiters[:0]
}

// Wait blocks p until the next Broadcast.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.park()
}
