package bench

import (
	"encoding/binary"
	"errors"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ib"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// RawOneWay measures the one-way time of an n-byte raw RDMA write from
// a buffer in srcKind memory on node 0 to dstKind memory on node 1
// (Figure 5's primitive), averaged over iters ping-pong rounds.
func (e *Env) RawOneWay(plat *perfmodel.Platform, srcKind, dstKind machine.DomainKind, n, iters int) sim.Duration {
	t, _ := e.rawOneWay(plat, srcKind, dstKind, n, iters)
	return t
}

// rawOneWay is RawOneWay, also returning the two adapters it drove.
func (e *Env) rawOneWay(plat *perfmodel.Platform, srcKind, dstKind machine.DomainKind, n, iters int) (sim.Duration, [2]*ib.HCA) {
	eng := sim.NewEngine()
	fab := ib.NewFabric(eng, plat)
	fab.Metrics = e.Metrics
	n0, n1 := machine.NewNode(0), machine.NewNode(1)
	h0, h1 := fab.AttachHCA(n0), fab.AttachHCA(n1)
	ctxA := h0.Open(srcKind)
	ctxB := h1.Open(dstKind)
	pdA, pdB := ctxA.AllocPD(), ctxB.AllocPD()
	cqA := ctxA.CreateCQ(1024)
	cqB := ctxB.CreateCQ(1024)
	qpA := ctxA.CreateQP(pdA, cqA, cqA)
	qpB := ctxB.CreateQP(pdB, cqB, cqB)
	if err := ib.ConnectPair(qpA, qpB); err != nil {
		panic(err)
	}
	src := n0.Domain(srcKind).Alloc(n)
	dst := n1.Domain(dstKind).Alloc(n)
	var total sim.Duration
	eng.Spawn("fig5", func(p *sim.Proc) {
		smr, err := ctxA.RegMR(p, pdA, src.Dom, src.Addr, n)
		if err != nil {
			panic(err)
		}
		dmr, err := ctxB.RegMR(p, pdB, dst.Dom, dst.Addr, n)
		if err != nil {
			panic(err)
		}
		for it := 1; it <= iters; it++ {
			// Stamp the marker the receiver polls for.
			binary.LittleEndian.PutUint32(src.Data[n-4:], uint32(it))
			start := p.Now()
			if err := qpA.PostSend(p, &ib.SendWR{
				WRID: uint64(it), Opcode: ib.OpRDMAWrite, Signaled: true,
				SGL:    []ib.SGE{{Addr: src.Addr, Len: n, LKey: smr.LKey}},
				Remote: ib.RemoteAddr{Addr: dmr.Addr, RKey: dmr.RKey},
			}); err != nil {
				panic(err)
			}
			// Receiver-side memory polling for the marker.
			for binary.LittleEndian.Uint32(dst.Data[n-4:]) != uint32(it) {
				cqB.Notify.Wait(p)
			}
			total += p.Now() - start
			cqA.WaitPoll(p, 1)
		}
		if err := ctxA.DeregMR(p, smr); err != nil {
			panic(err)
		}
		if err := ctxB.DeregMR(p, dmr); err != nil {
			panic(err)
		}
	})
	if err := eng.Run(); err != nil {
		panic(err)
	}
	return total / sim.Duration(iters), [2]*ib.HCA{h0, h1}
}

// modeLabels are the series names the paper's figures give the modes
// (cluster.Mode.String is the command-line spelling).
var modeLabels = [...]string{
	cluster.ModeDCFA:        "DCFA-MPI+offload",
	cluster.ModeDCFABase:    "DCFA-MPI",
	cluster.ModeHost:        "Host MPI",
	cluster.ModeIntelPhi:    "IntelMPI-on-Phi",
	cluster.ModeHostOffload: "IntelMPI-Xeon+offload",
	cluster.ModeSymmetric:   "IntelMPI-symmetric",
}

// timeSizes is the measurement loop every communication sweep shares,
// run on each rank of w: per size, prep allocates the rank's buffers
// and returns one step of the pattern; after a barrier and warmup
// untimed steps, rank 0 times iters steps. One world serves the whole
// sweep, so MR caches behave as in the paper's steady state.
func timeSizes(w *core.World, sizes []int, iters, warmup int, prep func(r *core.Rank, tag, n int) func() error) []sim.Duration {
	out := make([]sim.Duration, len(sizes))
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		for si, n := range sizes {
			step := prep(r, si, n)
			if err := r.Barrier(p); err != nil {
				return err
			}
			for it := 0; it < warmup; it++ {
				if err := step(); err != nil {
					return err
				}
			}
			start := p.Now()
			for it := 0; it < iters; it++ {
				if err := step(); err != nil {
					return err
				}
			}
			if r.ID() == 0 {
				out[si] = (p.Now() - start) / sim.Duration(iters)
			}
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	return out
}

// isendIrecv is one bidirectional MPI_Isend/MPI_Irecv exchange with
// other.
func isendIrecv(r *core.Rank, other, tag int, sb, rb *machine.Buffer) error {
	p := r.Proc()
	sq, err := r.Isend(p, other, tag, core.Whole(sb))
	if err != nil {
		return err
	}
	rq, err := r.Irecv(p, other, tag, core.Whole(rb))
	if err != nil {
		// Drain the already-posted send before bailing out.
		return errors.Join(err, r.WaitAll(p, sq))
	}
	return r.WaitAll(p, sq, rq)
}

// NonblockingExchangeTimes measures, for each size, the average time of
// one bidirectional MPI_Isend/MPI_Irecv exchange between 2 ranks
// (Figures 7 and 8's primitive).
func (e *Env) NonblockingExchangeTimes(plat *perfmodel.Platform, m cluster.Mode, sizes []int, iters int) []sim.Duration {
	return timeSizes(e.world(plat, m, 2), sizes, iters, 0, func(r *core.Rank, tag, n int) func() error {
		sb, rb := r.Mem(n), r.Mem(n)
		return func() error { return isendIrecv(r, 1-r.ID(), tag, sb, rb) }
	})
}

// BlockingPingPongRTTs measures the blocking Send/Recv round-trip time
// for each size (Figure 9's primitive: "bandwidth result is calculated
// using the round trip latency of MPI blocking communication").
func (e *Env) BlockingPingPongRTTs(plat *perfmodel.Platform, m cluster.Mode, sizes []int, iters int) []sim.Duration {
	return timeSizes(e.world(plat, m, 2), sizes, iters, 0, func(r *core.Rank, tag, n int) func() error {
		buf := r.Mem(n)
		return func() error { return pingPong(r, tag, buf) }
	})
}

// pingPong is one blocking round trip between ranks 0 and 1: rank 0
// sends then receives, rank 1 receives then sends.
func pingPong(r *core.Rank, tag int, buf *machine.Buffer) error {
	p := r.Proc()
	other := 1 - r.ID()
	if r.ID() == 0 {
		if err := r.Send(p, other, tag, core.Whole(buf)); err != nil {
			return err
		}
		_, err := r.Recv(p, other, tag, core.Whole(buf))
		return err
	}
	if _, err := r.Recv(p, other, tag, core.Whole(buf)); err != nil {
		return err
	}
	return r.Send(p, other, tag, core.Whole(buf))
}

// CommOnlyHostOffload measures the communication-only application
// (Table II) under 'Intel MPI on Xeon + offload': per iteration the
// results are copied out of the card, exchanged between hosts, and the
// received data copied back in — with the paper's four optimizations
// applied (persistent aligned buffers, no per-iteration offload init,
// double buffering for what the data dependencies allow).
func (e *Env) CommOnlyHostOffload(plat *perfmodel.Platform, sizes []int, iters int) []sim.Duration {
	c := e.Cluster(plat, 2)
	return timeSizes(c.World(cluster.ModeHostOffload, 2), sizes, iters, 0, func(r *core.Rank, tag, n int) func() error {
		p := r.Proc()
		bus := c.Buses[c.NodeFor(r.ID())]
		bus.OffloadInit(p) // once: later calls are no-ops
		hostSend, hostRecv := r.Mem(n), r.Mem(n)
		micBuf := bus.Node.Mic.Alloc(n)
		return func() error {
			// Copy out the card's results for sending, exchange between
			// the hosts, copy the received data back in for the next
			// compute.
			bus.OffloadTransfer(p, hostSend.Data, micBuf.Data)
			if err := isendIrecv(r, 1-r.ID(), tag, hostSend, hostRecv); err != nil {
				return err
			}
			bus.OffloadTransfer(p, micBuf.Data, hostRecv.Data)
			return nil
		}
	})
}
