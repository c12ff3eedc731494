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

// reqState tracks a request through its protocol. A request starts in
// stNew and moves along these edges:
//
//   - stNew → stEagerQueued: eager send waiting for ring credit
//   - stNew → stEagerSent: eager packet posted immediately
//   - stEagerQueued → stEagerSent: credit arrived, packet posted
//   - stNew → stRTSSent: payload over EagerMax, sender-first rendezvous
//   - stNew → stWriting: early RTR was waiting, receiver-first rendezvous
//   - stNew → stPosted: recv posted with nothing matched yet
//   - stNew → stReading: recv matched an unexpected RTS at post time
//   - stPosted → stRTRWait: large recv advertised its buffer
//   - stPosted → stReading: RTS matched the posted recv
//   - stRTRWait → stReading: simultaneous rendezvous, receiver reads anyway
//   - any state → stDone: completion, including errors
type reqState uint8

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

// Request is a nonblocking operation handle. Isend and Irecv hand one
// to the caller for every message, so it is kept within the allocator's
// 128-byte size class (TestRequestFitsItsSizeClass): fixed-width fields,
// the wide ones first so none is padded, and nothing stored that the
// others determine.
type Request struct {
	r     *Rank
	slice Slice
	seq   uint64
	err   error
	// pins are the cache pins released at completion, npins of them. A
	// request never holds more than two: a receive the buffer its RTR
	// advertised, then the read of a simultaneous rendezvous; a
	// non-offloaded rendezvous send only its source, pins[0], whose
	// rkey the RTS advertised and which the receiver-first write reuses.
	pins [2]*ib.MR

	// What report.go keeps on a request: the lifecycle span from post to
	// completion (its Start is when the request was posted) and its
	// in-flight transfer child (nil without a registry), its rank-local
	// id in the causal stream (0 unless recording), and the protocol
	// class it resolved to (causal.Proto*, always set: a DONE does not
	// re-classify a send that dropping an RTR already made simultaneous).
	span, xferSpan *metrics.Span
	cid            uint64

	peer int32 // destination, or matched source for receives
	tag  int32
	// status is what Status reports once a receive has matched. It is
	// not peer and tag: those keep what was posted, so a wildcard
	// receive's lifecycle events name the wildcard.
	status status
	// off is where in its rank's offload arena a staged send's bytes
	// are, slice.N of them; staged says it holds that range, whose
	// host-side rkey the RTS advertised.
	off    int32
	staged bool

	state     reqState
	npins     uint8
	proto     uint8
	isSend    bool
	completed bool
	// open says the caller holds q from Isend or Irecv and has not yet
	// seen it complete: it counts against the rank's exit check.
	open bool
}

// status is a Status in the request's fixed-width fields.
type status struct{ src, tag, n int32 }

// Done reports completion (poll without progress; use Rank.Test to also
// drive the protocol).
func (q *Request) Done() bool { return q.completed }

// Err returns the request error after completion.
func (q *Request) Err() error { return q.err }

// Status returns receive metadata after completion.
func (q *Request) Status() Status {
	return Status{Source: int(q.status.src), Tag: int(q.status.tag), Len: int(q.status.n)}
}

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
	if q.staged {
		q.r.arena.release(offRegion{off: int(q.off), n: q.slice.N})
		q.staged = false
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
// which the protocol provably holds it nowhere: its posted WR left wrMap
// at its last CQE, and a successful completion has taken it out of expRecv,
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

// arrival is a packet waiting in a pair's unexpected queue: it reached
// the rank before its matching receive was posted, or is a loopback send
// no receive was posted for.
type arrival struct {
	h header
	// data is the eager payload, copied out of the ring or send buffer.
	// The record pool keeps its backing across recycles, so steady-state
	// unexpected traffic reuses the same allocation instead of a fresh
	// make([]byte) per packet.
	data []byte
}

// wrKind is what a work request carries. Its values (wrEager ...
// wrRndvRead) are declared in report.go from the causal profiler's WR
// codes, so zero stays "unset".
type wrKind uint8

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

// postedWR is a work request core formed: the verbs WR, reposted
// unchanged by a replay, and what its completion routes back to. It
// comes from Rank.wrFree, is held in wrMap by its WR id until its
// completion, and goes back at a successful one.
type postedWR struct {
	ib.SendWR
	kind wrKind
	req  *Request
	ps   *peerState // the pair the WR travels on
	// h is a packet WR's (eager/ctrl) header: later sends reuse the
	// rank's packet slot, so a replay restages the packet from h and the
	// request's payload. A rendezvous WR's buffers stay pinned.
	h     header
	tries int // replays performed for this WR
}
