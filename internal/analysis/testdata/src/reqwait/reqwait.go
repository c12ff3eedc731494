// Package reqwait seeds nonblocking-request completion violations on a
// local stand-in for core.Rank: every Isend/Irecv request must reach
// Wait, WaitAll, or Test on every path, or be handed to a caller that
// will complete it.
package reqwait

type Proc struct{}

type Status struct{ Len int }

type Slice struct{}

type Request struct{ tag int }

type Rank struct{}

func (r *Rank) Isend(p *Proc, dst, tag int, s Slice) (*Request, error) { return &Request{}, nil }
func (r *Rank) Irecv(p *Proc, src, tag int, s Slice) (*Request, error) { return &Request{}, nil }
func (r *Rank) Wait(p *Proc, q *Request) (Status, error)               { return Status{}, nil }
func (r *Rank) WaitAll(p *Proc, qs ...*Request) error                  { return nil }
func (r *Rank) Test(p *Proc, q *Request) bool                          { return true }

type tracker struct{ pending []*Request }

func cond() bool { return false }

// LeakPlain posts a send and returns without completing it.
func LeakPlain(r *Rank, p *Proc) error {
	q, err := r.Isend(p, 1, 0, Slice{}) // want "request from Isend is not completed on every path"
	if err != nil {
		return err
	}
	_ = q
	return nil
}

// LeakOnErrorPath mirrors the Sendrecv bug shape: when the Irecv
// fails, the already-posted send request leaks.
func LeakOnErrorPath(r *Rank, p *Proc) error {
	sq, err := r.Isend(p, 1, 0, Slice{}) // want "request from Isend is not completed on every path"
	if err != nil {
		return err
	}
	rq, err := r.Irecv(p, 1, 0, Slice{})
	if err != nil {
		return err // sq leaks here
	}
	return r.WaitAll(p, sq, rq)
}

// DoubleWait completes the same request twice.
func DoubleWait(r *Rank, p *Proc) error {
	q, err := r.Irecv(p, 1, 0, Slice{})
	if err != nil {
		return err
	}
	if _, err := r.Wait(p, q); err != nil {
		return err
	}
	_, err = r.Wait(p, q) // want "request may already be completed"
	return err
}

// Discard throws the request away: it can never be completed.
func Discard(r *Rank, p *Proc) {
	_, err := r.Isend(p, 1, 0, Slice{}) // want "request from Isend discarded"
	_ = err
}

// Suppressed carries an ignore directive: no finding.
func Suppressed(r *Rank, p *Proc) error {
	//simlint:ignore reqwait fire-and-forget probe completed by the progress engine
	q, err := r.Isend(p, 1, 0, Slice{})
	if err != nil {
		return err
	}
	_ = q
	return nil
}

// WaitedBothPaths completes on the early return and the fall-through:
// not flagged.
func WaitedBothPaths(r *Rank, p *Proc) error {
	q, err := r.Irecv(p, 1, 0, Slice{})
	if err != nil {
		return err
	}
	if cond() {
		_, err := r.Wait(p, q)
		return err
	}
	return r.WaitAll(p, q)
}

// TestDrains spins on Test until completion: Test counts as reaching
// completion, so no finding.
func TestDrains(r *Rank, p *Proc) error {
	q, err := r.Isend(p, 1, 0, Slice{})
	if err != nil {
		return err
	}
	for !r.Test(p, q) {
	}
	return nil
}

// GatherThenWaitAll accumulates requests in a slice across a loop and
// completes them together, draining on the mid-loop error path: the
// append transfers the obligation to the slice, so no finding.
func GatherThenWaitAll(r *Rank, p *Proc) error {
	var reqs []*Request
	for i := 0; i < 4; i++ {
		q, err := r.Isend(p, i, 0, Slice{})
		if err != nil {
			if werr := r.WaitAll(p, reqs...); werr != nil {
				return werr
			}
			return err
		}
		reqs = append(reqs, q)
	}
	return r.WaitAll(p, reqs...)
}

// StartSend hands the request to the caller, who owes the Wait.
func StartSend(r *Rank, p *Proc) (*Request, error) {
	return r.Isend(p, 1, 0, Slice{})
}

// TracksForLater stores the request in a longer-lived tracker that
// completes it elsewhere: not flagged here.
func (t *tracker) TracksForLater(r *Rank, p *Proc) error {
	q, err := r.Irecv(p, 1, 0, Slice{})
	if err != nil {
		return err
	}
	t.pending = append(t.pending, q)
	return nil
}

// LoopAppendEarlyReturn posts into a slice across a loop and bails out
// on a failed post without completing what the slice already holds:
// the nil result of this iteration says nothing about the requests
// earlier iterations appended, so the append is where they are owed.
func LoopAppendEarlyReturn(r *Rank, p *Proc) error {
	var reqs []*Request
	for i := 0; i < 4; i++ {
		q, err := r.Irecv(p, i, 0, Slice{})
		if err != nil {
			return err
		}
		reqs = append(reqs, q) // want "request from append is not completed on every path"
	}
	return r.WaitAll(p, reqs...)
}

// ---- declared contracts ----

// sendAsync is a request constructor.
//
//simlint:contract reqwait acquire the caller owes the Wait
func sendAsync(r *Rank, p *Proc) (*Request, error) {
	return r.Isend(p, 1, 1, Slice{})
}

// finish completes a request behind a helper.
//
//simlint:contract reqwait release
func finish(r *Rank, p *Proc, q *Request) error {
	_, err := r.Wait(p, q)
	return err
}

// HelperWaitOK completes the request through finish.
func HelperWaitOK(r *Rank, p *Proc) error {
	q, err := r.Isend(p, 1, 1, Slice{})
	if err != nil {
		return err
	}
	return finish(r, p, q)
}

// RequestConstructorLeak: the constructor's declared obligation lands
// on the caller.
func RequestConstructorLeak(r *Rank, p *Proc) {
	q, err := sendAsync(r, p) // want "request from sendAsync is not completed on every path"
	if err != nil {
		return
	}
	_ = q
}

// RequestConstructorOK: constructor plus helper completion balance.
func RequestConstructorOK(r *Rank, p *Proc) error {
	q, err := sendAsync(r, p)
	if err != nil {
		return err
	}
	return finish(r, p, q)
}

// RequestConstructorDiscard can never be completed.
func RequestConstructorDiscard(r *Rank, p *Proc) {
	_, _ = sendAsync(r, p) // want "request from sendAsync discarded"
}

// Poster posts and completes nonblocking sends behind an interface
// whose methods are not builtin verbs: the contracts on the interface
// methods are what a call through it resolves to.
type Poster interface {
	//simlint:contract reqwait acquire
	Post(p *Proc, s Slice) (*Request, error)
	//simlint:contract reqwait release
	Finish(p *Proc, q *Request)
}

// PostLeak: the request acquired through the interface is never
// completed.
func PostLeak(x Poster, p *Proc) {
	q, err := x.Post(p, Slice{}) // want "request from Post is not completed on every path"
	if err != nil {
		return
	}
	_ = q
}

// PostFinishOK: completion also crosses the boundary.
func PostFinishOK(x Poster, p *Proc) {
	q, err := x.Post(p, Slice{})
	if err != nil {
		return
	}
	x.Finish(p, q)
}

// Comm carries the builtin verb names themselves: classification is by
// name and receiver type, and an interface receiver's type name counts.
type Comm interface {
	Isend(p *Proc, dst, tag int, s Slice) (*Request, error)
	Wait(p *Proc, q *Request) (Status, error)
}

// CommIfaceLeak: Isend through the interface still opens a request
// obligation.
func CommIfaceLeak(c Comm, p *Proc) {
	q, err := c.Isend(p, 1, 0, Slice{}) // want "request from Isend is not completed on every path"
	if err != nil {
		return
	}
	_ = q
}
