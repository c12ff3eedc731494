// Package iface seeds the interface-aware layers: acquiring and
// releasing calls that cross an interface boundary (resolved by
// devirtualizing to the package's implementing types and taking the
// meet of their summaries), //simlint:contract directives declared on
// interface methods with no implementation in sight, and builtin verbs
// called on an interface receiver. Every finding and every silence
// here depends on interface resolution — a static-call-only engine
// sees none of it.
package iface

type Proc struct{}

type PD struct{}

type MR struct {
	LKey uint32
	Addr uint64
}

type Verbs struct{}

func (v *Verbs) RegMR(p *Proc, pd *PD, addr uint64, n int) (*MR, error) { return &MR{}, nil }
func (v *Verbs) DeregMR(p *Proc, mr *MR) error                          { return nil }

type Status struct{ Len int }

type Buffer struct{ Data []byte }

type Slice struct {
	Buf    *Buffer
	Off, N int
}

func Whole(b *Buffer) Slice { return Slice{Buf: b, N: len(b.Data)} }

func (s Slice) Bytes() []byte { return s.Buf.Data[s.Off : s.Off+s.N] }

type Request struct{ tag int }

type Rank struct{ id int }

func (r *Rank) Isend(p *Proc, dst, tag int, s Slice) (*Request, error) { return &Request{}, nil }
func (r *Rank) Irecv(p *Proc, src, tag int, s Slice) (*Request, error) { return &Request{}, nil }
func (r *Rank) Wait(p *Proc, q *Request) (Status, error)               { return Status{}, nil }

// ---- devirtualized MR lifecycle: one implementing type ----

// Transport hides registration behind an interface. Neither method
// name is a builtin verb, so only devirtualization to ibTransport's
// summaries makes calls through it checkable.
type Transport interface {
	Open(p *Proc) (*MR, error)
	Close(p *Proc, mr *MR)
}

type ibTransport struct {
	v  *Verbs
	pd *PD
}

func (t *ibTransport) Open(p *Proc) (*MR, error) { return t.v.RegMR(p, t.pd, 0x1000, 64) }
func (t *ibTransport) Close(p *Proc, mr *MR)     { _ = t.v.DeregMR(p, mr) }

// OpenLeak: the acquiring call is an interface dispatch; the MR leak
// is visible only through the devirtualized Open summary.
func OpenLeak(t Transport, p *Proc) {
	mr, err := t.Open(p) // want "memory region from Open is not deregistered on every path"
	if err != nil {
		return
	}
	_ = mr.LKey
}

// OpenCloseOK: the releasing call crosses the same boundary — every
// Close target releases, so the meet releases and nothing is reported.
func OpenCloseOK(t Transport, p *Proc) {
	mr, err := t.Open(p)
	if err != nil {
		return
	}
	t.Close(p, mr)
}

// ---- meet of obligations: disagreeing implementations ----

// Closer has two implementations: one releases, one only reads. The
// meet of release and borrow is escape — a call through Closer can
// neither be counted on to release nor be safely released after.
type Closer interface {
	Shut(p *Proc, mr *MR)
}

type realCloser struct{ v *Verbs }

func (c *realCloser) Shut(p *Proc, mr *MR) { _ = c.v.DeregMR(p, mr) }

type nullCloser struct{}

func (c *nullCloser) Shut(p *Proc, mr *MR) {}

// MixedCloseQuiet: with targets disagreeing, Shut must be treated as
// an escape — no leak and no double-release may be claimed here.
func MixedCloseQuiet(v *Verbs, p *Proc, pd *PD, c Closer) {
	mr, err := v.RegMR(p, pd, 0x2000, 64)
	if err != nil {
		return
	}
	c.Shut(p, mr)
}

// Source has two implementations of which only one registers: the
// meet acquires nothing, so callers owe nothing.
type Source interface {
	Fetch(p *Proc) (*MR, error)
}

type regSource struct {
	v  *Verbs
	pd *PD
}

func (s *regSource) Fetch(p *Proc) (*MR, error) { return s.v.RegMR(p, s.pd, 0x3000, 64) }

type cacheSource struct{ mr *MR }

func (s *cacheSource) Fetch(p *Proc) (*MR, error) { return s.mr, nil }

// MixedFetchQuiet: only some Fetch targets hand out a fresh
// obligation, so binding the result must not start one.
func MixedFetchQuiet(s Source, p *Proc) {
	mr, err := s.Fetch(p)
	if err != nil {
		return
	}
	_ = mr.LKey
}

// ---- contract directives on interface methods ----

// Registrar has no implementation anywhere in this package: the
// declared contracts alone make calls through it checkable.
type Registrar interface {
	//simlint:contract mrleak acquire fresh registration the caller must free
	Acquire(p *Proc, n int) (*MR, error)
	//simlint:contract mrleak release
	Free(p *Proc, mr *MR)
	//simlint:contract mrleak borrow
	Inspect(p *Proc, mr *MR) uint32
	//simlint:contract mrleak pass
	Identity(mr *MR) *MR
}

// RegistrarLeak: the declared borrow keeps Inspect from escaping the
// region, so the missing Free is still reportable.
func RegistrarLeak(rg Registrar, p *Proc) {
	mr, err := rg.Acquire(p, 64) // want "memory region from Acquire is not deregistered on every path"
	if err != nil {
		return
	}
	_ = rg.Inspect(p, mr)
}

// RegistrarBalancedOK: declared acquire and release cancel out.
func RegistrarBalancedOK(rg Registrar, p *Proc) {
	mr, err := rg.Acquire(p, 64)
	if err != nil {
		return
	}
	rg.Free(p, mr)
}

// RegistrarPassOK: the declared pass hands the same region through, so
// releasing the wrapper's result releases the original binding.
func RegistrarPassOK(rg Registrar, p *Proc) {
	mr, err := rg.Acquire(p, 64)
	if err != nil {
		return
	}
	mr2 := rg.Identity(mr)
	rg.Free(p, mr2)
}

// RegistrarDoubleFree: the declared release makes the second Free a
// double discharge.
func RegistrarDoubleFree(rg Registrar, p *Proc) {
	mr, err := rg.Acquire(p, 64)
	if err != nil {
		return
	}
	rg.Free(p, mr)
	rg.Free(p, mr) // want "memory region may already be deregistered"
}

// ---- devirtualized request lifecycle ----

// Poster posts and completes nonblocking sends behind an interface;
// rankPoster is its only implementation.
type Poster interface {
	Post(p *Proc, s Slice) (*Request, error)
	Finish(p *Proc, q *Request)
}

type rankPoster struct{ r *Rank }

func (x *rankPoster) Post(p *Proc, s Slice) (*Request, error) { return x.r.Isend(p, 1, 0, s) }
func (x *rankPoster) Finish(p *Proc, q *Request)              { _, _ = x.r.Wait(p, q) }

// PostLeak: the request acquired through the interface dispatch is
// never completed.
func PostLeak(x Poster, p *Proc, b *Buffer) {
	q, err := x.Post(p, Whole(b)) // want "request from Post is not completed on every path"
	if err != nil {
		return
	}
	_ = q
}

// PostFinishOK: completion also crosses the boundary.
func PostFinishOK(x Poster, p *Proc, b *Buffer) {
	q, err := x.Post(p, Whole(b))
	if err != nil {
		return
	}
	x.Finish(p, q)
}

// ---- builtin verbs through an interface receiver ----

// Comm carries the builtin verb names themselves: classification is by
// name and receiver type, and an interface receiver's type name counts
// — no implementation or devirtualization needed.
type Comm interface {
	Isend(p *Proc, dst, tag int, s Slice) (*Request, error)
	Wait(p *Proc, q *Request) (Status, error)
}

// CommIfaceLeak: Isend through the interface still opens a request
// obligation.
func CommIfaceLeak(c Comm, p *Proc, b *Buffer) {
	q, err := c.Isend(p, 1, 0, Whole(b)) // want "request from Isend is not completed on every path"
	if err != nil {
		return
	}
	_ = q
}
