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

	// Stats.
	DMACopies   int64
	DMABytes    int64
	OffloadOps  int64
	OffloadByte int64

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
}

// engine is what tells the bus's two transfer paths apart: the link that
// serializes it, the Bus stats it counts into, and its names in the
// registry. Everything else about a transfer is Bus.start.
type engine struct {
	link                      *sim.Link
	ops, bytes                *int64
	opsC, bytesC, busyC, span string
}

// Attach builds the PCIe complex for node n.
func Attach(eng *sim.Engine, plat *perfmodel.Platform, n *machine.Node) *Bus {
	b := &Bus{Eng: eng, Plat: plat, Node: n, actor: fmt.Sprintf("pcie/node%d", n.ID)}
	b.dma = engine{sim.NewLink(eng, n.Host.Name+"/dma-engine", plat.DMAEngineLatency, plat.DMAEngineBandwidth),
		&b.DMACopies, &b.DMABytes, "dma.copies", "dma.bytes", "dma.busy-ns", "dma-copy"}
	b.coi = engine{sim.NewLink(eng, n.Host.Name+"/coi", plat.OffloadTransferOverhead, plat.OffloadBandwidth),
		&b.OffloadOps, &b.OffloadByte, "coi.ops", "coi.bytes", "coi.busy-ns", "coi-transfer"}
	return b
}

// DMAOp is an in-flight DMA descriptor. Done fires at completion time
// whether the copy succeeded or was aborted by a fault plan; Err is
// valid after Done fires.
type DMAOp struct {
	done *sim.Event
	err  error
}

// Done exposes the completion event.
func (op *DMAOp) Done() *sim.Event { return op.done }

// Err reports the descriptor's outcome; meaningful once Done fired.
func (op *DMAOp) Err() error { return op.err }

// Wait blocks p until the descriptor completes and returns its outcome.
func (op *DMAOp) Wait(p *sim.Proc) error {
	op.done.Wait(p)
	return op.err
}

// start begins an asynchronous copy of len(src) bytes into dst on e
// (slices must be equal length; caller resolves addresses) and returns
// the event that fires when the last byte has landed; the copy itself is
// performed then. A fault plan may delay the transfer on either engine.
// It may abort it — no bytes copied, *err set before the event fires —
// only where the caller passes somewhere to report that.
func (b *Bus) start(e *engine, dst, src []byte, err *error) *sim.Event {
	if len(dst) != len(src) {
		panic("pcie: transfer length mismatch")
	}
	done := sim.NewEvent(b.Eng)
	var sp *metrics.Span
	if reg := b.Metrics; reg != nil {
		reg.Counter(b.actor, e.opsC).Inc()
		reg.Counter(b.actor, e.bytesC).Add(int64(len(src)))
		reg.Counter(b.actor, e.busyC).Add(int64(e.link.OccupancyFor(len(src))))
		sp = reg.Begin(b.Eng.Now(), b.actor, e.span).AttrInt("bytes", int64(len(src)))
	}
	delay, abort := b.Faults.DMAFault()
	if !abort {
		err = nil // nothing to report
	}
	arrive := e.link.Reserve(len(src)) + delay
	*e.ops++
	*e.bytes += int64(len(src))
	// aborted is err under a name nothing assigns to, so the callback
	// captures it by value and the transfer allocates no cell for it.
	start, aborted := b.Eng.Now(), err
	b.Eng.At(arrive, func() {
		sp.End(b.Eng.Now())
		if aborted != nil {
			*aborted = &DMAAbortError{Bytes: len(src)}
		} else {
			copy(dst, src)
		}
		b.Causal.Emit(causal.Event{T: b.Eng.Now(), Kind: causal.EvDMADone, Rank: -1,
			Peer: int32(b.Node.ID), Aux: uint64(b.Eng.Now() - start), Bytes: int32(len(src))})
		done.Fire()
	})
	return done
}

// StartDMA begins an asynchronous DMA-engine copy of src into dst. Under
// a fault plan the descriptor may complete late or abort with
// DMAAbortError (no bytes copied).
func (b *Bus) StartDMA(dst, src []byte) *DMAOp {
	op := &DMAOp{}
	op.done = b.start(&b.dma, dst, src, &op.err)
	return op
}

// DMACopy is the blocking form of StartDMA.
func (b *Bus) DMACopy(p *sim.Proc, dst, src []byte) error {
	return b.StartDMA(dst, src).Wait(p)
}

// StartOffloadTransfer begins an asynchronous COI transfer (either
// direction) of src into dst. The fixed per-transfer overhead is the
// link latency; bandwidth is the pragma-offload effective rate. COI
// transfers only see a fault plan's delays (the runtime retries
// internally); aborts are modeled on the raw DMA engine the offload
// staging path uses.
func (b *Bus) StartOffloadTransfer(dst, src []byte) *sim.Event {
	return b.start(&b.coi, dst, src, nil)
}

// OffloadTransfer is the blocking form of StartOffloadTransfer.
func (b *Bus) OffloadTransfer(p *sim.Proc, dst, src []byte) {
	ev := b.StartOffloadTransfer(dst, src)
	ev.Wait(p)
}

// OffloadLaunch charges one offload-region invocation with the given
// OpenMP thread count awakened inside the region.
func (b *Bus) OffloadLaunch(p *sim.Proc, threads int) {
	p.Sleep(b.Plat.OffloadLaunchCost(threads))
}

// OffloadInit charges the one-time COI engine initialization.
func (b *Bus) OffloadInit(p *sim.Proc) {
	p.Sleep(b.Plat.OffloadInitCost)
}
