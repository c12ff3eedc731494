// Package core implements DCFA-MPI: the paper's MPI point-to-point and
// collective layer over the DCFA InfiniBand interface, including the
// four communication protocols of §IV-B3 (Eager, Sender-First
// Rendezvous, Receiver-First Rendezvous, Simultaneous Send/Receive
// Rendezvous), per-pair sequence ids with the MPI_ANY_SOURCE locking
// scheme, the memory-region cache pool, and the §IV-B4 offloading
// send-buffer design.
//
// As in the paper, request matching is ordered by per-pair sequence
// ids: the k-th send from a rank pairs with the k-th receive posted for
// that rank, tags are verified (MPI_ANY_TAG matches anything), and
// Eager/Rendezvous mis-predictions are resolved exactly as §IV-B3
// prescribes.
package core

import (
	"repro/internal/dcfa"
	"repro/internal/ib"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Verbs abstracts the InfiniBand provider under one MPI rank, so the
// same protocol engine runs over DCFA on the co-processor, plain host
// verbs (the YAMPII-like host MPI reference), or a proxied path (the
// 'Intel MPI on Xeon Phi' baseline).
type Verbs interface {
	// Loc is where the MPI software executes (host or co-processor).
	Loc() machine.DomainKind
	// Domain is the memory the rank's buffers live in.
	Domain() *machine.Domain
	// HCA is the adapter used by this rank.
	HCA() *ib.HCA

	// Resource creation can fail on providers whose control path rides
	// a faultable channel (the DCFA CMD protocol under fault plans).
	AllocPD(p *sim.Proc) (*ib.PD, error)
	CreateCQ(p *sim.Proc, depth int) (*ib.CQ, error)
	CreateQP(p *sim.Proc, pd *ib.PD, sendCQ, recvCQ *ib.CQ) (*ib.QP, error)
	RegMR(p *sim.Proc, pd *ib.PD, dom *machine.Domain, addr uint64, n int) (*ib.MR, error)
	DeregMR(p *sim.Proc, mr *ib.MR) error

	PostSend(p *sim.Proc, qp *ib.QP, wr *ib.SendWR) error

	// RecvOverhead is the provider's extra cost to deliver one inbound
	// packet of n payload bytes to the MPI layer (zero for direct
	// providers; the proxied Intel path pays the daemon's relay copy).
	RecvOverhead(n int) sim.Duration

	// Offload send-buffer extension; SupportsOffload reports whether
	// the three reg/sync/dereg verbs are available.
	SupportsOffload() bool
	RegOffloadMR(p *sim.Proc, size int) (*dcfa.OffloadMR, error)
	SyncOffloadMR(p *sim.Proc, omr *dcfa.OffloadMR, off int, src []byte) error
	DeregOffloadMR(p *sim.Proc, omr *dcfa.OffloadMR) error
}

// directPost is the data path of a provider whose rank posts to the
// HCA itself: work requests go straight to the QP and an inbound packet
// costs nothing extra.
type directPost struct{}

func (directPost) PostSend(p *sim.Proc, qp *ib.QP, wr *ib.SendWR) error { return qp.PostSend(p, wr) }
func (directPost) RecvOverhead(n int) sim.Duration                      { return 0 }

// NoOffload is the offload half of a provider without the offloading
// send-buffer verbs (host MPI, proxied MPI): embed it and the three
// verbs return ErrNoOffload.
type NoOffload struct{}

func (NoOffload) SupportsOffload() bool { return false }
func (NoOffload) RegOffloadMR(p *sim.Proc, size int) (*dcfa.OffloadMR, error) {
	return nil, ErrNoOffload
}
func (NoOffload) SyncOffloadMR(p *sim.Proc, omr *dcfa.OffloadMR, off int, src []byte) error {
	return ErrNoOffload
}
func (NoOffload) DeregOffloadMR(p *sim.Proc, omr *dcfa.OffloadMR) error { return ErrNoOffload }

// DCFAVerbs is the DCFA-MPI provider: the rank runs on the co-processor
// with direct HCA access. Resource creation, registration and the
// offload verbs (SupportsOffload included) are dcfa.MicVerbs's own
// methods, promoted unchanged.
type DCFAVerbs struct {
	*dcfa.MicVerbs
	directPost
}

// Loc implements Verbs.
func (d DCFAVerbs) Loc() machine.DomainKind { return machine.MicMem }
func (d DCFAVerbs) Domain() *machine.Domain { return d.Node.Mic }
func (d DCFAVerbs) HCA() *ib.HCA            { return d.MicVerbs.HCA }

// ProxyVerbs is the 'Intel MPI on Xeon Phi' provider: co-processor
// resident MPI whose verbs are relayed through the host proxy daemon.
// It is the DCFA provider except where the relay costs or withholds
// something.
type ProxyVerbs struct {
	DCFAVerbs
	// The Intel stack has no offloading send-buffer verbs.
	NoOffload
}

// CreateQP creates the QP and caps its throughput at the proxy staging
// rate.
func (x ProxyVerbs) CreateQP(p *sim.Proc, pd *ib.PD, scq, rcq *ib.CQ) (*ib.QP, error) {
	qp, err := x.DCFAVerbs.CreateQP(p, pd, scq, rcq)
	if err != nil {
		return nil, err
	}
	qp.RateCap = x.Plat.ProxyBandwidth
	return qp, nil
}

// PostSend relays the work request through the host proxy daemon: one
// extra per-operation cost before the HCA sees it.
func (x ProxyVerbs) PostSend(p *sim.Proc, qp *ib.QP, wr *ib.SendWR) error {
	p.Sleep(x.Plat.ProxySendCost)
	return qp.PostSend(p, wr)
}

// RecvOverhead is the daemon's inbound relay: completion notification
// plus copying the staged payload back to card memory.
func (x ProxyVerbs) RecvOverhead(n int) sim.Duration {
	return x.Plat.ProxyRecvCost(n)
}

// HostVerbs adapts a plain host ib.Context: the host MPI reference the
// paper compares against (YAMPII on the Xeon).
type HostVerbs struct {
	Ctx  *ib.Context
	Node *machine.Node
	directPost
	NoOffload
}

func (h HostVerbs) Loc() machine.DomainKind             { return machine.HostMem }
func (h HostVerbs) Domain() *machine.Domain             { return h.Node.Host }
func (h HostVerbs) HCA() *ib.HCA                        { return h.Ctx.HCA }
func (h HostVerbs) AllocPD(p *sim.Proc) (*ib.PD, error) { return h.Ctx.AllocPD(), nil }
func (h HostVerbs) CreateCQ(p *sim.Proc, depth int) (*ib.CQ, error) {
	return h.Ctx.CreateCQ(depth), nil
}
func (h HostVerbs) CreateQP(p *sim.Proc, pd *ib.PD, scq, rcq *ib.CQ) (*ib.QP, error) {
	return h.Ctx.CreateQP(pd, scq, rcq), nil
}
func (h HostVerbs) RegMR(p *sim.Proc, pd *ib.PD, dom *machine.Domain, addr uint64, n int) (*ib.MR, error) {
	return h.Ctx.RegMR(p, pd, dom, addr, n)
}
func (h HostVerbs) DeregMR(p *sim.Proc, mr *ib.MR) error { return h.Ctx.DeregMR(p, mr) }
