package sim

import (
	"fmt"
	"testing"
)

// splitmix returns a seeded splitmix64 stream (math/rand is banned in
// sim-driven code).
func splitmix(seed uint64) func() uint64 {
	return func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
}

// mixedSchedule spawns 64 processes that each take 24 seeded steps: a
// Sleep, a Yield, a wait on a Signal a callback broadcasts, a wait on one of
// four Signals, or a callback of its own that may broadcast one. A ringer
// callback broadcasts every Signal each 3 ns while any process lives, so
// no wait is left hanging. It returns the count of callbacks run.
func mixedSchedule(e *Engine, seed uint64) *int64 {
	const procs, steps = 64, 24
	next := splitmix(seed)
	var sigs [4]*Signal
	for i := range sigs {
		sigs[i] = NewSignal(e)
	}
	callbacks := new(int64)
	live := procs
	var ring func()
	ring = func() {
		*callbacks++
		for _, s := range sigs {
			s.Broadcast()
		}
		if live > 0 {
			e.After(3, ring)
		}
	}
	e.After(3, ring)
	for i := 0; i < procs; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			for j := 0; j < steps; j++ {
				r := next()
				arg := r >> 8
				switch r % 5 {
				case 0:
					p.Sleep(Duration(arg % 7))
				case 1:
					p.Yield()
				case 2:
					s := NewSignal(e)
					e.After(Duration(arg%5), func() { *callbacks++; s.Broadcast() })
					s.Wait(p)
				case 3:
					sigs[arg%4].Wait(p)
				case 4:
					e.After(Duration(arg%4), func() {
						*callbacks++
						if arg&4 == 0 {
							sigs[(arg>>3)%4].Broadcast()
						}
					})
				}
			}
			live--
		})
	}
	return callbacks
}

// sleepers spawns n processes in round robin: process k sleeps k, then
// n at a time for rounds rounds, so the next process event is always the
// next process's.
func sleepers(e *Engine, n, rounds int) {
	for k := 0; k < n; k++ {
		e.Spawn("sleeper", func(p *Proc) {
			p.Sleep(Duration(k))
			for i := 0; i < rounds; i++ {
				p.Sleep(Duration(n))
			}
		})
	}
}

// chainLinks is deepChain's length for the failure tests: a callback at
// the top of the chain runs with 64 processes blocked below it, and a
// process on top with 65.
const chainLinks = 65

// deepChain spawns n processes, process k sleeping k and then running
// wait, which must block for good. At t=k the process below resumes
// process k on top of itself, so from t=n-1 on n-1 of them are blocked
// in the chain, and a process dispatched later runs on top of all n —
// unless it was itself blocked below them at t=0: a process spawned
// before the chain that wakes later unwinds it down to itself.
func deepChain(e *Engine, n int, wait func(p *Proc)) {
	for k := 0; k < n; k++ {
		e.Spawn(fmt.Sprintf("link%d", k), func(p *Proc) {
			p.Sleep(Duration(k))
			wait(p)
		})
	}
}

// atFailure records, just before a failure, how many processes were
// blocked in the chain and whether Current() was right.
type atFailure struct {
	depth   int
	current bool
}

func (f *atFailure) see(e *Engine, want *Proc) {
	f.depth = 0
	for _, p := range e.procs {
		if p.blocked {
			f.depth++
		}
	}
	f.current = e.Current() == want
}

// check fails t unless the failure happened with at least depth processes
// blocked in the chain and the right Current(), and Current() is nil
// now that Run is over.
func (f *atFailure) check(t *testing.T, e *Engine, depth int) {
	t.Helper()
	if f.depth < depth || !f.current || e.Current() != nil {
		t.Fatalf("at the failure: %d blocked in the chain (want ≥ %d), Current() right: %v; after Run: Current() = %v",
			f.depth, depth, f.current, e.Current())
	}
}

// Every resume and every suspend is one coroutine switch; a process
// dispatch is a calendar event that is not a callback. A process resumes
// a free one on top of itself and suspends only to unwind to one blocked
// below it, so a ping-pong dispatch is one switch, and no schedule costs
// more than two: every unwinding suspend matches an earlier resume, and
// every resume is a dispatch. Event order does not depend on any of it:
// the mixed schedule's fingerprint was recorded before the chain existed,
// when every dispatch was a suspend to Run and a resume from it.
func TestSwitchesPerDispatch(t *testing.T) {
	none := new(int64)
	cases := []struct {
		name  string
		build func(e *Engine) (callbacks *int64)
		exact bool   // one switch per dispatch, not just at most two
		fp    uint64 // pinned fingerprint; 0 pins none
	}{
		{"two-sleepers", func(e *Engine) *int64 { sleepers(e, 2, 1000); return none }, true, 0},
		{"round-robin-8", func(e *Engine) *int64 { sleepers(e, 8, 100); return none }, false, 0},
		{"mixed-64", func(e *Engine) *int64 { return mixedSchedule(e, 27) }, false, 0x94fd9402bd265fee},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			callbacks := tc.build(e)
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			dispatches := e.EventsRun() - *callbacks
			got := fmt.Sprintf("%d switches for %d process dispatches (%.3f each)",
				e.switches, dispatches, float64(e.switches)/float64(dispatches))
			if e.switches > 2*dispatches || tc.exact && e.switches != dispatches {
				t.Fatal(got)
			}
			t.Log(got)
			if tc.fp != 0 && e.Fingerprint() != tc.fp {
				t.Fatalf("fingerprint %#x, want %#x", e.Fingerprint(), tc.fp)
			}
		})
	}
}
