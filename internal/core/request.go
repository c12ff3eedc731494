package core

import (
	"repro/internal/ib"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Slice is a contiguous range of a rank-local buffer, the unit all MPI
// operations act on. Buffers must live in the rank's memory domain so
// that zero-copy rendezvous can register them.
type Slice struct {
	Buf *machine.Buffer
	Off int
	N   int
}

// Whole wraps an entire buffer.
func Whole(b *machine.Buffer) Slice { return Slice{Buf: b, N: len(b.Data)} }

// Bytes returns the addressed range.
func (s Slice) Bytes() []byte {
	if s.Buf == nil {
		return nil
	}
	return s.Buf.Data[s.Off : s.Off+s.N]
}

// Addr returns the device address of the range start.
func (s Slice) Addr() uint64 { return s.Buf.Addr + uint64(s.Off) }

// Sub returns the sub-range [off, off+n) relative to s.
func (s Slice) Sub(off, n int) Slice { return Slice{Buf: s.Buf, Off: s.Off + off, N: n} }

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	Len    int
}

// reqState tracks a request through its protocol. The declared machine
// below is checked by simlint's fsmcheck: every assignment made while
// dispatching on the state must follow a declared edge, and every state
// must be reachable.
//
//simlint:fsm -> stNew
//simlint:fsm stNew -> stEagerQueued eager send waiting for ring credit
//simlint:fsm stNew -> stEagerSent eager packet posted immediately
//simlint:fsm stEagerQueued -> stEagerSent credit arrived, packet posted
//simlint:fsm stNew -> stRTSSent payload over EagerMax, sender-first rendezvous
//simlint:fsm stNew -> stWriting early RTR was waiting, receiver-first rendezvous
//simlint:fsm stNew -> stPosted recv posted with nothing matched yet
//simlint:fsm stNew -> stReading recv matched an unexpected RTS at post time
//simlint:fsm stPosted -> stRTRWait large recv advertised its buffer
//simlint:fsm stPosted -> stReading RTS matched the posted recv
//simlint:fsm stRTRWait -> stReading simultaneous rendezvous, receiver reads anyway
//simlint:fsm stNew -> stDone completion (including errors) from any stage
//simlint:fsm stEagerQueued -> stDone
//simlint:fsm stEagerSent -> stDone
//simlint:fsm stRTSSent -> stDone
//simlint:fsm stWriting -> stDone
//simlint:fsm stPosted -> stDone
//simlint:fsm stRTRWait -> stDone
//simlint:fsm stReading -> stDone
type reqState int

const (
	stNew         reqState = iota
	stEagerQueued          // eager send waiting for ring credit
	stEagerSent            // eager packet posted, awaiting local CQE
	stRTSSent              // sender-first rendezvous: RTS out, waiting DONE
	stWriting              // receiver-first rendezvous: RDMA write in flight
	stPosted               // recv posted, nothing matched yet
	stReading              // recv: RDMA read in flight
	stRTRWait              // recv sent RTR, waiting for sender's write + DONE
	stDone
)

// stateNames is how a LeakError spells a request's state.
var stateNames = [...]string{"new", "eager-queued", "eager-sent", "rts-sent", "writing", "posted", "reading", "rtr-wait", "done"}

// Request is a nonblocking operation handle.
type Request struct {
	r      *Rank
	isSend bool
	peer   int // destination, or matched source for receives
	tag    int
	seq    uint64
	slice  Slice

	state     reqState
	completed bool
	// open says the caller holds q from Isend or Irecv and has not yet
	// seen it complete: it counts against the rank's exit check.
	open   bool
	err    error
	status Status

	// Send-side rendezvous resources.
	offReg  *offRegion
	advAddr uint64
	advKey  uint32
	// pins are the cache pins released at completion, npins of them. A
	// request never holds more than two: a receive the buffer its RTR
	// advertised, then the read of a simultaneous rendezvous; a
	// non-offloaded rendezvous send only its source, pins[0], which the
	// receiver-first write reuses.
	pins  [2]*ib.MR
	npins int

	// What report.go keeps on a request: the lifecycle span from post to
	// completion and its in-flight transfer child (nil without a
	// registry), when it was posted, its rank-local id in the causal
	// stream (0 unless recording), and the protocol class it resolved
	// to (causal.Proto*, always set: a DONE does not re-classify a send
	// that dropping an RTR already made simultaneous).
	span, xferSpan *metrics.Span
	startT         sim.Time
	cid            uint64
	proto          uint8
}

// Done reports completion (poll without progress; use Rank.Test to also
// drive the protocol).
func (q *Request) Done() bool { return q.completed }

// Err returns the request error after completion.
func (q *Request) Err() error { return q.err }

// Status returns receive metadata after completion.
func (q *Request) Status() Status { return q.status }

// owe hands q to the caller, who owes it a wait.
func (q *Request) owe() {
	q.open = true
	q.r.unwaited++
}

// seen records that the caller saw q complete — Wait, WaitAll, the index
// Waitany returns, a Test that reports true — so its rank owes nothing
// for it.
func (q *Request) seen() {
	if q.open {
		q.open = false
		q.r.unwaited--
	}
}

// pin records a cache pin for complete to release.
func (q *Request) pin(mr *ib.MR) {
	q.pins[q.npins] = mr
	q.npins++
}

// complete finalizes a request, releasing its staging and cache pins.
func (q *Request) complete(p *sim.Proc, err error) {
	if q.completed {
		return
	}
	q.completed = true
	q.err = err
	q.state = stDone
	if q.offReg != nil {
		q.offReg.arena.release(q.offReg)
		q.offReg = nil
	}
	for _, mr := range q.pins[:q.npins] {
		q.r.mrCache.Release(p, mr)
	}
	q.pins, q.npins = [2]*ib.MR{}, 0
	q.r.completed(p, q, err)
}

// newRequest hands out a request record for Isend or Irecv to fill:
// a recycled one if a blocking operation has retired any, else a fresh
// one.
func (r *Rank) newRequest() *Request {
	if q, ok := r.reqFree.Get(); ok {
		return q
	}
	return &Request{}
}

// retire recycles the requests of a blocking operation once it has
// waited for them: handles the caller never saw, so the rank owns them.
// (A request Isend or Irecv returned to the caller is the caller's for
// ever and never comes here.) A request is recycled only if it completed
// with a nil error on a rank that is not poisoned — the one state in
// which the protocol provably holds it nowhere: its wrMap action went at
// its last CQE, and a successful completion has taken it out of expRecv,
// sendsBySeq, pendingSends, deferred and anyActive first. Any other
// request is left to the collector. The record is zeroed, so a holder
// this reasoning missed nil-dereferences q.r into a PanicError instead of
// silently completing a stranger's message.
func (r *Rank) retire(reqs ...*Request) {
	for _, q := range reqs {
		if !q.completed || q.err != nil || r.fatal != nil {
			continue
		}
		*q = Request{}
		r.reqFree.Put(q)
	}
}

// arrival is a packet that reached the rank before its matching receive
// was posted (the unexpected queue), or an RTR that reached the sender
// before its Isend (receiver-first case).
type arrival struct {
	h    header
	data []byte // eager payload, copied out of the ring
	// buf is the retained copy backing for unexpected eager payloads:
	// the record pool keeps it across recycles so steady-state
	// unexpected traffic reuses the same allocation instead of a fresh
	// make([]byte) per packet.
	buf []byte
}

// wrAction routes a CQ entry back to protocol state.
type wrKind int

const (
	wrEager wrKind = iota
	wrCtrl
	wrRndvWrite
	wrRndvRead
)

func (k wrKind) String() string {
	switch k {
	case wrEager:
		return "eager"
	case wrCtrl:
		return "ctrl"
	case wrRndvWrite:
		return "rndv-write"
	case wrRndvRead:
		return "rndv-read"
	default:
		return "unknown"
	}
}

type wrAction struct {
	kind wrKind
	req  *Request
	peer int

	// Fault-recovery state, populated only when a fault plan is
	// active. Packet WRs (eager/ctrl) retain a byte snapshot because
	// the per-peer staging buffer is reused by later sends; rendezvous
	// WRs retain the formed WR itself, whose SGEs point at buffers
	// pinned until the request completes.
	pkt   []byte     // retained header+payload+tail bytes (wrEager/wrCtrl)
	slot  int        // remote ring slot the packet targets
	wr    *ib.SendWR // retained WR (wrRndvWrite/wrRndvRead)
	tries int        // replays performed for this WR
}
