// Package ib is a simulated InfiniBand verbs provider: fabric, HCAs,
// protection domains, memory regions, queue pairs and completion queues
// with the RC semantics the paper's software relies on — Send/Receive
// and RDMA read/write with scatter/gather elements, key-checked memory
// access, in-order completion per QP, and SGE-ordered payload delivery
// (the property DCFA-MPI's eager tail-polling depends on).
//
// All payloads are real bytes copied once, from the source memory
// region into the destination region, at the virtual time the hardware
// would have delivered them: a posted buffer belongs to the HCA until
// its completion, as in verbs, and only a SendWR.Inline post is captured
// at post time. All timing flows through the perfmodel calibration
// (notably the direction-dependent HCA DMA rates that create the
// paper's Figure 5 asymmetry).
package ib

import (
	"fmt"

	"repro/internal/causal"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Fabric is an InfiniBand subnet. With Topo nil it behaves as a single
// non-blocking switch: the only serialization is each HCA's egress
// link, exactly the wiring the repository always modeled. With Topo set
// the interior of the fabric (leaf/spine links with their own latency,
// bandwidth and FIFO contention) sits between source egress and
// destination memory.
type Fabric struct {
	Eng  *sim.Engine
	Plat *perfmodel.Platform
	hcas []*HCA

	// Topo, when non-nil, is the switched-fabric interior. Ports are
	// LID-1 (HCA attach order). Install it before traffic flows; nil
	// keeps bit-identical single-switch behavior.
	Topo topo.Topology

	// Metrics, when non-nil, records per-QP work-request counts, RDMA
	// bytes per direction pair (source memory kind -> destination
	// memory kind) and wire-transfer spans, each HCA on its own
	// "hca<LID>" track. Install it before QPs are created.
	Metrics *metrics.Registry

	// Faults, when non-nil, injects deterministic completion errors on
	// posted RDMA work requests (the fault plan's "ib" layer). Nil
	// means sunny-day behavior.
	Faults *faults.Injector

	// Causal, when non-nil, receives one node-layer EvHWCQE record
	// (Rank == -1, Peer = HCA LID) per completion the hardware pushes,
	// for the causal profiler's hardware-side tally.
	Causal *causal.Recorder

	// inlineFree recycles the post-time captures of Inline work
	// requests: a capture is taken at PostSend and returned once the wire
	// has delivered or dropped it, so the pool holds at most the inline
	// packets that were ever in flight at once.
	inlineFree sim.Pool[[]byte]

	// flightFree recycles the records of in-flight work requests: at most
	// as many as were ever on the wire at once.
	flightFree sim.Pool[*flight]
}

// NewFabric creates an empty subnet.
func NewFabric(eng *sim.Engine, plat *perfmodel.Platform) *Fabric {
	return &Fabric{Eng: eng, Plat: plat}
}

// captureBuf hands out a buffer of capacity at least n for an inline
// capture. A recycled buffer that is too small is dropped for a larger
// one, so the list converges on the largest packet size in use.
func (f *Fabric) captureBuf(n int) []byte {
	if n == 0 {
		return nil
	}
	b, _ := f.inlineFree.Get()
	if cap(b) < n {
		b = make([]byte, 0, n)
	}
	return b[:0]
}

// releaseBuf returns a capture nothing references anymore.
func (f *Fabric) releaseBuf(b []byte) {
	if cap(b) > 0 {
		f.inlineFree.Put(b)
	}
}

// AttachHCA installs one HCA on node n and assigns it the next LID.
func (f *Fabric) AttachHCA(n *machine.Node) *HCA {
	h := &HCA{
		fab:      f,
		Node:     n,
		LID:      uint16(len(f.hcas) + 1),
		qps:      make(map[uint32]*QP),
		mrs:      make(map[uint32]*MR),
		nextQPN:  0x100,
		nextKey:  0x1000,
		Doorbell: sim.NewSignal(f.Eng),
	}
	h.actor = fmt.Sprintf("hca%d", h.LID)
	h.egress = sim.NewLink(f.Eng, fmt.Sprintf("%s/ib-egress", n.Host.Name), plat(f).IBLatency, plat(f).IBBandwidth)
	f.hcas = append(f.hcas, h)
	return h
}

func plat(f *Fabric) *perfmodel.Platform { return f.Plat }

// HCAByLID resolves a LID to its HCA.
func (f *Fabric) HCAByLID(lid uint16) (*HCA, error) {
	i := int(lid) - 1
	if i < 0 || i >= len(f.hcas) {
		return nil, fmt.Errorf("ib: no HCA with LID %d", lid)
	}
	return f.hcas[i], nil
}

// HCA is one ConnectX-3-like adapter.
type HCA struct {
	fab  *Fabric
	Node *machine.Node
	LID  uint16

	// egress serializes all outbound wire traffic of this adapter.
	egress *sim.Link

	nextQPN uint32
	qps     map[uint32]*QP
	nextKey uint32
	mrs     map[uint32]*MR

	// Doorbell broadcasts whenever remote data lands in this node
	// (RDMA payloads, receives, read responses): the simulation
	// equivalent of memory-polling progress engines noticing change.
	// Only landed rings it.
	Doorbell *sim.Signal

	// actor is this adapter's telemetry track name ("hca<LID>").
	actor string
	// Byte-counter handles of an instrumented fabric, resolved at each
	// one's first use so a traced post concatenates no names and looks
	// nothing up: SEND bytes, and RDMA bytes per opcode and direction
	// pair [source kind][destination kind].
	sendBytes             *metrics.Counter
	writePairs, readPairs [2][2]pairStat
}

// pairStat is the telemetry of one RDMA direction pair on one HCA.
type pairStat struct {
	name  string // "<source kind>-><destination kind>", the span attribute
	bytes *metrics.Counter
}

// pair returns the entry of tab for src -> dst, naming it and creating
// its counter "<prefix><pair>" on first use. Only called on an
// instrumented fabric.
func (h *HCA) pair(tab *[2][2]pairStat, prefix string, src, dst machine.DomainKind) *pairStat {
	ps := &tab[src][dst]
	if ps.bytes == nil {
		ps.name = src.String() + "->" + dst.String()
		ps.bytes = h.fab.Metrics.Counter(h.actor, prefix+ps.name)
	}
	return ps
}

// landed is the one place the adapter makes known that it wrote this
// node's memory — an RDMA payload (faulted-but-delivered included), a
// read response, a completion entry. Bytes that came through a QP name
// it, and its owner hears of them first (QP.OnLand); a completion entry
// passes nil.
func (h *HCA) landed(qp *QP) {
	if qp != nil && qp.OnLand != nil {
		qp.OnLand()
	}
	h.Doorbell.Broadcast()
}

// deliverVia routes a data transfer whose last byte clears this HCA's
// egress at arrive through the fabric interior toward dst, reserving
// interior link occupancy. With no topology installed the fabric is a
// non-blocking crossbar and arrive is already the delivery time.
func (h *HCA) deliverVia(arrive sim.Time, dst *HCA, n int, bps float64) sim.Time {
	if t := h.fab.Topo; t != nil {
		return t.Deliver(arrive, int(h.LID)-1, int(dst.LID)-1, n, bps)
	}
	return arrive
}

// ctrlDelayTo is the extra latency-only interior crossing toward dst
// for small control messages (read requests).
func (h *HCA) ctrlDelayTo(dst *HCA) sim.Duration {
	if t := h.fab.Topo; t != nil {
		return t.CtrlDelay(int(h.LID)-1, int(dst.LID)-1)
	}
	return 0
}

// Open returns a verbs context whose post/poll costs follow the calling
// location: loc is HostMem for host programs, MicMem for code running on
// the co-processor (DCFA's direct data path).
func (h *HCA) Open(loc machine.DomainKind) *Context {
	return &Context{HCA: h, Loc: loc}
}

// regMR registers [addr, addr+n) of dom with the adapter, with no time
// cost; callers charge registration according to their own path (host
// verbs vs DCFA delegation).
func (h *HCA) regMR(pd *PD, dom *machine.Domain, addr uint64, n int) (*MR, error) {
	if pd == nil {
		return nil, fmt.Errorf("ib: nil PD")
	}
	data, err := dom.Resolve(addr, n)
	if err != nil {
		return nil, fmt.Errorf("ib: register: %w", err)
	}
	h.nextKey++
	mr := &MR{PD: pd, Dom: dom, Addr: addr, Len: n, LKey: h.nextKey, RKey: h.nextKey, data: data, hca: h}
	h.mrs[mr.LKey] = mr
	return mr, nil
}

// deregMR removes the region; later accesses with its keys fault.
func (h *HCA) deregMR(mr *MR) error {
	if _, ok := h.mrs[mr.LKey]; !ok {
		return fmt.Errorf("ib: dereg of unknown MR lkey=%#x", mr.LKey)
	}
	delete(h.mrs, mr.LKey)
	mr.invalid = true
	return nil
}

// LiveMRs reports how many memory regions are registered on the
// adapter: every RegMR not yet matched by its DeregMR.
func (h *HCA) LiveMRs() int { return len(h.mrs) }

// lookupMR validates that [addr, addr+n) is covered by the MR with the
// given key and returns the backing bytes.
func (h *HCA) lookupMR(key uint32, addr uint64, n int) ([]byte, *MR, error) {
	mr, ok := h.mrs[key]
	if !ok {
		return nil, nil, fmt.Errorf("ib: key %#x not registered on LID %d", key, h.LID)
	}
	if addr < mr.Addr || addr+uint64(n) > mr.Addr+uint64(mr.Len) {
		return nil, nil, fmt.Errorf("ib: access [%#x,+%d) outside MR [%#x,+%d)", addr, n, mr.Addr, mr.Len)
	}
	off := addr - mr.Addr
	return mr.data[off : off+uint64(n)], mr, nil
}
