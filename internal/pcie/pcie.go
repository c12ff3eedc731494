// Package pcie models the PCI Express connection between a node's host
// and its Xeon Phi card. It provides two distinct data paths that the
// paper distinguishes sharply:
//
//   - the Phi's raw DMA engine (used by DCFA's sync_offload_mr), which
//     moves Phi↔host bulk data near PCIe wire speed; and
//   - the COI / #pragma offload transfer path used by the 'Intel MPI on
//     Xeon + offload' baseline, which adds a fixed per-transfer
//     signal/wait overhead and a lower effective bandwidth, plus a
//     per-invocation kernel-launch cost.
//
// Both move real bytes at virtual-time completion, so data written too
// early or read too late shows up as corruption in tests.
package pcie

import (
	"fmt"

	"repro/internal/causal"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// DMAAbortError reports a DMA descriptor that the fault plan aborted:
// no bytes were copied. Callers on the offload staging path fall back
// to the direct (non-offloaded) send path.
type DMAAbortError struct {
	Bytes int
}

func (e *DMAAbortError) Error() string {
	return fmt.Sprintf("pcie: DMA transfer of %d bytes aborted", e.Bytes)
}

// Bus is one node's PCIe complex.
type Bus struct {
	Eng  *sim.Engine
	Plat *perfmodel.Platform
	Node *machine.Node

	// dma is the Phi's DMA engine, coi the COI offload path: each
	// serializes its own transfers.
	dma, coi engine
	// offloadReady is set once OffloadInit has paid the COI start-up.
	offloadReady bool

	// Metrics, when non-nil, records transfer counts, bytes, engine
	// busy time (wire occupancy, for utilization) and transfer spans
	// on the "pcie/node<N>" track.
	Metrics *metrics.Registry
	actor   string

	// Faults, when non-nil, can delay or abort DMA descriptors and
	// delay COI transfers (the fault plan's "pcie" layer).
	Faults *faults.Injector

	// Causal, when non-nil, receives node-layer EvDMADone records
	// (Rank == -1, Peer = node id) at copy-completion time for the
	// cross-rank causal profiler's DMA/COI tally.
	Causal *causal.Recorder

	// free recycles the records of copies in flight: at most one per
	// process blocked in DMACopy or OffloadTransfer.
	free sim.Pool[*transfer]
}

// engine is what tells the bus's two transfer paths apart: the link that
// serializes it, its names in the registry and whether a fault plan may
// abort its copies. Everything else about a transfer is Bus.move.
type engine struct {
	link                      *sim.Link
	opsC, bytesC, busyC, span string
	// abortable: the raw DMA engine's descriptors can abort; COI
	// retries internally, so its transfers are only ever delayed.
	abortable bool
}

// Attach builds the PCIe complex for node n.
func Attach(eng *sim.Engine, plat *perfmodel.Platform, n *machine.Node) *Bus {
	b := &Bus{Eng: eng, Plat: plat, Node: n, actor: fmt.Sprintf("pcie/node%d", n.ID)}
	b.dma = engine{sim.NewLink(eng, n.Host.Name+"/dma-engine", plat.DMAEngineLatency, plat.DMAEngineBandwidth),
		"dma.copies", "dma.bytes", "dma.busy-ns", "dma-copy", true}
	b.coi = engine{sim.NewLink(eng, n.Host.Name+"/coi", plat.OffloadTransferOverhead, plat.OffloadBandwidth),
		"coi.ops", "coi.bytes", "coi.busy-ns", "coi-transfer", false}
	return b
}

// transfer is one copy on the wire, from the call that starts it to the
// calendar event that lands it. Records come from a pool on the Bus and
// go back once the copier has woken, and the landing callback handed to
// Engine.At is a method value bound when the record is first made — so
// a copy in steady state allocates nothing.
type transfer struct {
	b        *Bus
	dst, src []byte
	start    sim.Time
	span     *metrics.Span
	// aborted is the fault plan's verdict, drawn at start: the copy
	// lands no byte and the copier gets a *DMAAbortError.
	aborted bool
	// done wakes the copier. It is parked on done before any event can
	// fire, so the edge-triggered Signal cannot be missed, and Broadcast
	// keeps the waiter slice, so a reused record waits without
	// allocating.
	done   sim.Signal
	onLand func()
}

// move copies len(src) bytes into dst on e (slices must be equal length;
// caller resolves addresses), blocking p until the last byte has landed;
// the copy itself is performed then. A fault plan may delay the transfer
// on either engine. It may abort it — no bytes copied, a *DMAAbortError
// returned — only on an abortable engine.
func (b *Bus) move(p *sim.Proc, e *engine, dst, src []byte) error {
	if len(dst) != len(src) {
		panic("pcie: transfer length mismatch")
	}
	x, ok := b.free.Get()
	if !ok {
		x = &transfer{b: b}
		x.onLand = x.land
	}
	x.dst, x.src, x.start = dst, src, b.Eng.Now()
	if reg := b.Metrics; reg != nil {
		reg.Counter(b.actor, e.opsC).Inc()
		reg.Counter(b.actor, e.bytesC).Add(int64(len(src)))
		reg.Counter(b.actor, e.busyC).Add(int64(e.link.OccupancyFor(len(src))))
		x.span = reg.Begin(x.start, b.actor, e.span).AttrInt("bytes", int64(len(src)))
	}
	delay, abort := b.Faults.DMAFault()
	x.aborted = abort && e.abortable
	b.Eng.At(e.link.Reserve(len(src))+delay, x.onLand)
	x.done.Wait(p)
	var err error
	if x.aborted {
		err = &DMAAbortError{Bytes: len(src)}
	}
	// The landing has run, so no scheduled event names the record.
	*x = transfer{b: b, done: x.done, onLand: x.onLand}
	b.free.Put(x)
	return err
}

// land is the transfer's last byte arriving: the copy happens now.
func (x *transfer) land() {
	b, now := x.b, x.b.Eng.Now()
	x.span.End(now)
	if !x.aborted {
		copy(x.dst, x.src)
	}
	b.Causal.Emit(causal.Event{T: now, Kind: causal.EvDMADone, Rank: -1,
		Peer: int32(b.Node.ID), Aux: uint64(now - x.start), Bytes: int32(len(x.src))})
	x.done.Broadcast()
}

// DMACopy copies src into dst through the DMA engine, blocking p until
// the last byte has landed. Under a fault plan the descriptor may
// complete late or abort with *DMAAbortError (no bytes copied).
func (b *Bus) DMACopy(p *sim.Proc, dst, src []byte) error {
	return b.move(p, &b.dma, dst, src)
}

// OffloadTransfer is one COI transfer (either direction) of src into
// dst, blocking p until it has landed. The fixed per-transfer overhead
// is the link latency; bandwidth is the pragma-offload effective rate.
// COI transfers only see a fault plan's delays (the runtime retries
// internally); aborts are modeled on the raw DMA engine the offload
// staging path uses.
func (b *Bus) OffloadTransfer(p *sim.Proc, dst, src []byte) {
	b.move(p, &b.coi, dst, src)
}

// OffloadLaunch charges one offload-region invocation with the given
// OpenMP thread count awakened inside the region.
func (b *Bus) OffloadLaunch(p *sim.Proc, threads int) {
	p.Sleep(b.Plat.OffloadLaunchCost(threads))
}

// OffloadInit charges the one-time COI engine initialization, kept out
// of timed loops per the paper's first optimization policy; later calls
// on the same bus are free.
func (b *Bus) OffloadInit(p *sim.Proc) {
	if b.offloadReady {
		return
	}
	b.offloadReady = true
	p.Sleep(b.Plat.OffloadInitCost)
}
