package ib

import (
	"fmt"

	"repro/internal/causal"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Context is an opened verbs device handle. Loc determines where the
// calling software runs and therefore its post/poll costs.
type Context struct {
	HCA *HCA
	Loc machine.DomainKind

	pdSeq int
}

// PD is a protection domain.
type PD struct {
	ctx *Context
	id  int
}

// AllocPD allocates a protection domain.
func (c *Context) AllocPD() *PD {
	c.pdSeq++
	return &PD{ctx: c, id: c.pdSeq}
}

// MR is a registered memory region.
type MR struct {
	PD   *PD
	Dom  *machine.Domain
	Addr uint64
	Len  int
	LKey uint32
	RKey uint32

	data    []byte
	hca     *HCA
	invalid bool
}

// Bytes exposes the registered backing store (test helper).
func (m *MR) Bytes() []byte { return m.data }

// RegMR registers buffer memory [addr, addr+n) in dom and charges the
// host-side registration (page pinning) cost to p. This is the host
// verbs path; DCFA wraps it with delegation costs.
func (c *Context) RegMR(p *sim.Proc, pd *PD, dom *machine.Domain, addr uint64, n int) (*MR, error) {
	mr, err := c.HCA.regMR(pd, dom, addr, n)
	if err != nil {
		return nil, err
	}
	p.Sleep(c.HCA.fab.Plat.MRRegCost(n))
	return mr, nil
}

// RegMRBuffer registers a whole machine.Buffer.
func (c *Context) RegMRBuffer(p *sim.Proc, pd *PD, b *machine.Buffer) (*MR, error) {
	return c.RegMR(p, pd, b.Dom, b.Addr, len(b.Data))
}

// DeregMR unregisters the region.
func (c *Context) DeregMR(p *sim.Proc, mr *MR) error {
	return c.HCA.deregMR(mr)
}

// CQ is a completion queue: a ring of at most Depth entries. Its
// backing array grows with the most completions ever queued at once
// rather than being sized to Depth at creation — core gives every rank a
// CQ of depth 1<<16 that holds a handful.
type CQ struct {
	ctx     *Context
	Depth   int
	entries sim.FIFO[CQE]
	// Notify broadcasts when an entry is pushed.
	Notify *sim.Signal
	// Overflows counts entries dropped because the CQ was full — a
	// programming error in the upper layer, surfaced loudly.
	Overflows int
}

// CreateCQ allocates a completion queue with the given depth.
func (c *Context) CreateCQ(depth int) *CQ {
	if depth <= 0 {
		depth = 256
	}
	return &CQ{ctx: c, Depth: depth, Notify: sim.NewSignal(c.HCA.fab.Eng)}
}

// push appends a completion and rings the node doorbell.
func (q *CQ) push(e CQE) {
	if q.entries.Len() >= q.Depth {
		q.Overflows++
		panic(fmt.Sprintf("ib: CQ overflow (depth %d): upper layer is not polling", q.Depth))
	}
	if h := q.ctx.HCA; h.fab.Metrics != nil {
		if qp, ok := h.qps[e.QPN]; ok {
			qp.completedC.Inc()
		}
	}
	if h := q.ctx.HCA; h.fab.Causal != nil {
		h.fab.Causal.Emit(causal.Event{T: h.fab.Eng.Now(), Kind: causal.EvHWCQE,
			Rank: -1, Peer: int32(h.LID), Aux: e.WRID, Bytes: int32(e.ByteLen)})
	}
	q.entries.Push(e)
	q.Notify.Broadcast()
	q.ctx.HCA.landed(nil)
}

// Poll removes up to max completions, charging the location-dependent
// poll cost when at least one entry is returned.
func (q *CQ) Poll(p *sim.Proc, max int) []CQE {
	if q.entries.Len() == 0 || max <= 0 {
		return nil
	}
	n := max
	if n > q.entries.Len() {
		n = q.entries.Len()
	}
	out := make([]CQE, n)
	q.PollInto(p, out)
	return out
}

// PollInto removes up to len(out) completions into out — the ibv-style
// zero-allocation poll: progress loops pass one persistent buffer
// instead of taking a fresh slice per call. It returns the entry count
// and charges the poll cost only when at least one entry is delivered.
func (q *CQ) PollInto(p *sim.Proc, out []CQE) int {
	n := len(out)
	if n > q.entries.Len() {
		n = q.entries.Len()
	}
	if n == 0 {
		return 0
	}
	for i := range out[:n] {
		out[i] = q.entries.Pop()
	}
	p.Sleep(q.ctx.HCA.fab.Plat.PollCost(q.ctx.Loc))
	return n
}

// Len reports queued completions.
func (q *CQ) Len() int { return q.entries.Len() }

// WaitPoll blocks p until at least one completion is available, then
// returns up to max of them.
func (q *CQ) WaitPoll(p *sim.Proc, max int) []CQE {
	for {
		if out := q.Poll(p, max); out != nil {
			return out
		}
		q.Notify.Wait(p)
	}
}

// Opcode identifies the work-request operation.
type Opcode int

const (
	OpSend Opcode = iota
	OpRDMAWrite
	OpRDMARead
	OpRecv // appears only in completions
)

func (o Opcode) String() string {
	switch o {
	case OpSend:
		return "SEND"
	case OpRDMAWrite:
		return "RDMA_WRITE"
	case OpRDMARead:
		return "RDMA_READ"
	case OpRecv:
		return "RECV"
	default:
		return fmt.Sprintf("Opcode(%d)", int(o))
	}
}

// Status is a completion status.
type Status int

const (
	StatusSuccess Status = iota
	StatusLocLenErr
	StatusLocProtErr
	StatusRemAccessErr
	StatusWRFlushErr
	// StatusRetryExcErr models RC retry exhaustion: the fabric gave up
	// on a work request and moved the QP to the error state. Injected
	// by a fault plan; recoverable by Reset + Connect + replay.
	StatusRetryExcErr
)

func (s Status) String() string {
	switch s {
	case StatusSuccess:
		return "SUCCESS"
	case StatusLocLenErr:
		return "LOC_LEN_ERR"
	case StatusLocProtErr:
		return "LOC_PROT_ERR"
	case StatusRemAccessErr:
		return "REM_ACCESS_ERR"
	case StatusWRFlushErr:
		return "WR_FLUSH_ERR"
	case StatusRetryExcErr:
		return "RETRY_EXC_ERR"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// SGE is a scatter/gather element.
type SGE struct {
	Addr uint64
	Len  int
	LKey uint32
}

// RemoteAddr targets remote memory for RDMA operations.
type RemoteAddr struct {
	Addr uint64
	RKey uint32
}

// SendWR is a send-queue work request.
type SendWR struct {
	WRID     uint64
	Opcode   Opcode
	SGL      []SGE
	Remote   RemoteAddr // RDMA ops only
	Signaled bool
	// Inline captures the SGL's bytes at post time (IBV_SEND_INLINE), so
	// the poster may rewrite the source before the completion. Without
	// it the source belongs to the HCA until the WR completes and its
	// bytes are read when they land. SEND and RDMA_WRITE opcodes only;
	// the model charges no time for it and bounds no size.
	Inline bool
}

// RecvWR is a receive-queue work request.
type RecvWR struct {
	WRID uint64
	SGL  []SGE
}

// CQE is a completion entry.
type CQE struct {
	WRID    uint64
	Status  Status
	Opcode  Opcode
	ByteLen int
	QPN     uint32
	SrcQPN  uint32
}
