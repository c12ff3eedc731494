// Package sim implements a deterministic, process-oriented discrete-event
// simulation engine.
//
// The engine owns a virtual clock. Simulated activities are either
// processes (Proc) — coroutines that run cooperatively, exactly one at a
// time, and advance the clock by sleeping or blocking — or scheduled
// callbacks (Engine.At / Engine.After) used by hardware models to deliver
// completions. Because only one process runs at any instant and ties are
// broken by insertion order, every simulation is bit-for-bit reproducible
// and free of data races by construction.
//
// The engine starts no goroutine and owns no channel. Each process is an
// iter.Pull coroutine. Whoever gives up the processor — a process that
// blocks, sleeps or ends, or Run itself — runs the calendar: callbacks
// execute right there (they still may not block) until the next process
// event. If that is the parker's own it returns with no switch; if its
// process is free, the parker resumes it on top of itself, so the bodies
// form a chain with Run at the bottom; if it is blocked below, or the
// run is over, the parker names it in e.handoff and suspends, and the
// chain unwinds to it. Once the run is over Run unwinds every process
// still alive, daemons included: a daemon does not survive its Run.
package sim

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Time is a virtual timestamp in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = Time

// Common durations, mirroring the time package for readability.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6gs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.6gms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.6gµs", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// event is a single entry in the engine's calendar queue.
type event struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among simultaneous events
	proc *Proc  // non-nil: wake this process
	fn   func() // non-nil: run this callback in engine context
}

// Engine is a discrete-event simulation. The zero value is not usable;
// call NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	queue   calendar
	procs   []*Proc
	current *Proc
	handoff *Proc // the next process, left for the body below a suspend
	stopped bool
	err     error

	// Stats.
	eventsRun int64
	switches  int64 // coroutine resumes plus suspends

	// fp accumulates an FNV-1a digest of every dispatched event's
	// (time, seq, proc) tuple; see Fingerprint.
	fp uint64
}

// fnv64Offset and fnv64Prime are the FNV-1a 64-bit parameters.
const (
	fnv64Offset = 14695981039346656037
	fnv64Prime  = 1099511628211
)

// fnvPow[k] is fnv64Prime^k: FNV-1a over k zero bytes, whose xors are
// no-ops, is k multiplies by the prime.
var fnvPow = func() (t [9]uint64) {
	for k, pow := 0, uint64(1); k < len(t); k, pow = k+1, pow*fnv64Prime {
		t[k] = pow
	}
	return t
}()

// Fingerprint sentinel process ids. Calendar events run by engine
// callbacks mix callbackPID; lookahead clock advances (Sleep fast path,
// no calendar round-trip) mix fastPathPID followed by the real process
// id, so workloads with different sleep schedules keep distinct
// fingerprints even when no heap event is dispatched.
const (
	callbackPID = uint64(1<<64 - 1)
	fastPathPID = uint64(1<<64 - 2)
)

// NewEngine returns an empty simulation at virtual time zero.
func NewEngine() *Engine { return &Engine{fp: fnv64Offset} }

// fpMix folds one 64-bit word, low byte first, into the event-order
// FNV-1a digest. Bytes up to the highest non-zero one are mixed one at a
// time; the zero bytes above it, most of every time, seq and process
// id, fold into one multiply.
func (e *Engine) fpMix(x uint64) {
	n := (bits.Len64(x) + 7) / 8
	fp := e.fp
	for i := 0; i < n; i++ {
		fp ^= x & 0xff
		fp *= fnv64Prime
		x >>= 8
	}
	e.fp = fp * fnvPow[8-n]
}

// Fingerprint returns an order-sensitive FNV-1a digest of every event
// dispatched so far: each event contributes its (virtual time, sequence
// number, process id) tuple, with callbacks contributing a sentinel id.
// Two runs of the same workload on fresh engines must produce identical
// fingerprints; a divergence means nondeterminism leaked into the
// simulation (wall-clock time, map iteration order, real concurrency).
func (e *Engine) Fingerprint() uint64 { return e.fp }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// EventsRun reports how many calendar events have been dispatched.
func (e *Engine) EventsRun() int64 { return e.eventsRun }

// schedule inserts an event into the calendar. It must not be called with
// a timestamp in the past. The entry is pushed by value: beyond the
// calendar slab's amortized growth, scheduling allocates nothing.
func (e *Engine) schedule(at Time, p *Proc, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	e.seq++
	e.queue.push(event{at: at, seq: e.seq, proc: p, fn: fn})
}

// At schedules fn to run in engine context at absolute virtual time t.
// Hardware models use this to deliver DMA and link completions.
func (e *Engine) At(t Time, fn func()) {
	e.schedule(t, nil, fn)
}

// After schedules fn to run d nanoseconds of virtual time from now.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+d, nil, fn)
}

// Stop aborts the simulation after the current event finishes; call it
// from a process or a callback. Run returns ErrStopped unless an error
// is pending.
func (e *Engine) Stop() { e.stopped = true }

// ErrStopped is returned by Run when the simulation was halted by Stop.
var ErrStopped = fmt.Errorf("sim: stopped")

// DeadlockError is returned by Run when the calendar drains while
// processes are still blocked on events that can no longer fire.
type DeadlockError struct {
	Now   Time
	Stuck []string // names of blocked processes
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d process(es) blocked: %s",
		d.Now, len(d.Stuck), strings.Join(d.Stuck, ", "))
}

// PanicError is returned by Run when a process (Proc is its name) or an
// Engine.At/After callback (Proc is empty) panicked with Value at time At.
type PanicError struct {
	Proc  string
	At    Time
	Value any
}

func (e *PanicError) Error() string {
	if e.Proc == "" {
		return fmt.Sprintf("sim: callback at %v panicked: %v", e.At, e.Value)
	}
	return fmt.Sprintf("sim: process %q panicked: %v", e.Proc, e.Value)
}

// Run is the bottom of the chain: it resumes the first process, and any
// process the chain unwinds to it with, until the calendar drains, Stop
// is called, or a process or callback panics. It returns nil on a clean
// drain with every non-daemon process finished, ErrStopped, a
// *DeadlockError if blocked processes remain, or a *PanicError for the
// first panic. Every return, and a runtime.Goexit rethrown from a
// process, unwinds the processes still alive, blocked daemons included,
// so no run leaves a coroutine behind: Run is terminal for daemons, and
// a later Run on the same engine sees only processes spawned after this
// one returned.
func (e *Engine) Run() error {
	defer e.killAll()
	for p := e.next(); p != nil; p = e.handoff {
		e.switches++
		p.resume()
	}
	var stuck []string
	for _, p := range e.procs {
		if !p.finished && !p.daemon {
			stuck = append(stuck, p.name)
		}
	}
	switch {
	case e.err != nil:
		return e.err
	case e.stopped:
		return ErrStopped
	case len(stuck) > 0:
		sort.Strings(stuck)
		return &DeadlockError{Now: e.now, Stuck: stuck}
	}
	return nil
}

// next runs the calendar in engine context: callbacks execute right
// here, with Current() == nil, until a live process's event comes up.
// It returns that process, or nil when the run is over: calendar
// drained, Stop, an error recorded, or a callback panicked just now
// (recovered here, so next returns nil).
func (e *Engine) next() *Proc {
	e.current = nil
	defer func() {
		if r := recover(); r != nil {
			e.fail("", r)
		}
	}()
	for !e.stopped && e.err == nil && e.queue.n > 0 {
		ev := e.queue.pop()
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		e.eventsRun++
		pid := callbackPID
		if ev.proc != nil {
			pid = uint64(ev.proc.id)
		}
		e.fpMix(uint64(ev.at))
		e.fpMix(ev.seq)
		e.fpMix(pid)
		switch {
		case ev.proc != nil:
			if !ev.proc.finished {
				e.current = ev.proc
				return ev.proc
			}
		case ev.fn != nil:
			ev.fn()
		}
	}
	return nil
}

// fail records a panic as the run's error; the first one wins.
func (e *Engine) fail(proc string, v any) {
	if e.err == nil {
		e.err = &PanicError{Proc: proc, At: e.now, Value: v}
	}
}

// killAll unwinds every unfinished process in spawn order with its
// coroutine's stop: a parked process's suspend returns false, so park
// panics errProcKilled and the body unwinds; one that never ran never
// starts.
func (e *Engine) killAll() {
	for _, p := range e.procs {
		if !p.finished {
			p.dead = true
			p.stop()
			p.finished = true
		}
	}
}

// Current returns the process currently executing, or nil when the engine
// is running a callback (in whichever body) or is idle.
func (e *Engine) Current() *Proc { return e.current }
