package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/causal"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dcfa"
	"repro/internal/ib"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/pcie"
	"repro/internal/perfmodel"
	"repro/internal/scif"
	"repro/internal/sim"
	"repro/internal/stencil"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Layer drivers: small loops over one layer's exported functions, run
// on a private engine with nothing else in the way. Each reports host
// nanoseconds (and, where named, heap allocations) per operation. They
// say what one operation of a layer costs; the traced run says how many
// of them a workload performs.

// driverBatch is the operation count of one batch; a driver runs whole
// batches until its time budget is spent.
const driverBatch = 20000

// sink keeps driver results alive so the compiler cannot drop the loop.
var sink int64

// measure runs batch (which performs and returns a number of
// operations) once to warm up and then until budget has elapsed.
func measure(budget time.Duration, batch func() int) (nsPerOp, allocsPerOp float64) {
	batch()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	ops := 0
	for time.Since(start) < budget {
		ops += batch()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(elapsed.Nanoseconds()) / float64(ops), float64(m1.Mallocs-m0.Mallocs) / float64(ops)
}

// mustRun drives an engine to completion; a driver that deadlocks or
// panics is a bug in the driver, not a measurement.
func mustRun(eng *sim.Engine) {
	if err := eng.Run(); err != nil && !errors.Is(err, sim.ErrStopped) {
		panic(fmt.Sprintf("benchmark driver: %v", err))
	}
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("benchmark driver: %v", err))
	}
}

// callbackChain runs one self-rescheduling Engine.After chain with
// pending far-future timers sitting in the calendar under it.
func callbackChain(pending int) int {
	eng := sim.NewEngine()
	for i := 0; i < pending; i++ {
		eng.At(sim.Time(1<<40+i), func() {})
	}
	n := driverBatch
	var step func()
	step = func() {
		n--
		if n > 0 {
			eng.After(1, step)
			return
		}
		eng.Stop()
	}
	eng.After(1, step)
	mustRun(eng)
	return driverBatch
}

// handoffBatch has two processes sleep on interleaved deadlines, so
// each Sleep finds the other's wake-up inside its window, misses the
// lookahead fast path and pays one park/resume round trip.
func handoffBatch() int {
	eng := sim.NewEngine()
	for k := 0; k < 2; k++ {
		offset := sim.Duration(k)
		eng.Spawn("sleeper", func(p *sim.Proc) {
			p.Sleep(offset)
			for i := 0; i < driverBatch/2; i++ {
				p.Sleep(2)
			}
		})
	}
	mustRun(eng)
	return driverBatch
}

func sleepFastBatch() int {
	eng := sim.NewEngine()
	eng.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < driverBatch; i++ {
			p.Sleep(1)
		}
	})
	mustRun(eng)
	return driverBatch
}

// fanoutBatch broadcasts one Signal per step to eight waiting
// processes; the unit is one wake-up.
func fanoutBatch() int {
	const waiters = 8
	steps := driverBatch / waiters
	eng := sim.NewEngine()
	sig := sim.NewSignal(eng)
	for k := 0; k < waiters; k++ {
		eng.Spawn("waiter", func(p *sim.Proc) {
			for i := 0; i < steps; i++ {
				sig.Wait(p)
			}
		})
	}
	eng.Spawn("ringer", func(p *sim.Proc) {
		for i := 0; i < steps; i++ {
			p.Sleep(1)
			sig.Broadcast()
		}
	})
	mustRun(eng)
	return steps * waiters
}

func linkReserveBatch() int {
	eng := sim.NewEngine()
	l := sim.NewLink(eng, "driver", 100*sim.Nanosecond, 5e9)
	for i := 0; i < driverBatch; i++ {
		sink += int64(l.Reserve(64))
	}
	return driverBatch
}

// ibPair is two connected HCAs with one QP each, posting from
// co-processor memory as DCFA's data path does.
type ibPair struct {
	eng        *sim.Engine
	ctxA, ctxB *ib.Context
	pdA, pdB   *ib.PD
	cqA, cqB   *ib.CQ
	qpA, qpB   *ib.QP
	n0, n1     *machine.Node
}

func newIBPair(plat *perfmodel.Platform) *ibPair {
	eng := sim.NewEngine()
	fab := ib.NewFabric(eng, plat)
	x := &ibPair{eng: eng, n0: machine.NewNode(0), n1: machine.NewNode(1)}
	x.ctxA = fab.AttachHCA(x.n0).Open(machine.MicMem)
	x.ctxB = fab.AttachHCA(x.n1).Open(machine.MicMem)
	x.pdA, x.pdB = x.ctxA.AllocPD(), x.ctxB.AllocPD()
	x.cqA, x.cqB = x.ctxA.CreateCQ(1024), x.ctxB.CreateCQ(1024)
	x.qpA = x.ctxA.CreateQP(x.pdA, x.cqA, x.cqA)
	x.qpB = x.ctxB.CreateQP(x.pdB, x.cqB, x.cqB)
	must(ib.ConnectPair(x.qpA, x.qpB))
	return x
}

// waitCQE blocks p until cq yields one completion into buf.
func waitCQE(p *sim.Proc, cq *ib.CQ, buf []ib.CQE) {
	for cq.PollInto(p, buf) == 0 {
		cq.Notify.Wait(p)
	}
	if buf[0].Status != ib.StatusSuccess {
		panic(fmt.Sprintf("benchmark driver: completion status %v", buf[0].Status))
	}
}

// ibBatch moves driverBatch/div messages of n bytes A -> B: SEND into a
// posted receive when rdma is false (completions polled on both sides),
// RDMA write otherwise (completion polled on the sender).
func ibBatch(plat *perfmodel.Platform, n, div int, rdma bool) int {
	x := newIBPair(plat)
	ops := driverBatch / div
	src, dst := x.n0.Mic.Alloc(n), x.n1.Mic.Alloc(n)
	x.eng.Spawn("driver", func(p *sim.Proc) {
		smr, err := x.ctxA.RegMRBuffer(p, x.pdA, src)
		must(err)
		dmr, err := x.ctxB.RegMRBuffer(p, x.pdB, dst)
		must(err)
		swr := &ib.SendWR{Opcode: ib.OpSend, Signaled: true, SGL: []ib.SGE{{Addr: src.Addr, Len: n, LKey: smr.LKey}}}
		rwr := &ib.RecvWR{SGL: []ib.SGE{{Addr: dst.Addr, Len: n, LKey: dmr.LKey}}}
		if rdma {
			swr.Opcode = ib.OpRDMAWrite
			swr.Remote = ib.RemoteAddr{Addr: dmr.Addr, RKey: dmr.RKey}
		}
		var cqe [1]ib.CQE
		for i := 0; i < ops; i++ {
			swr.WRID, rwr.WRID = uint64(i), uint64(i)
			if !rdma {
				must(x.qpB.PostRecv(p, rwr))
			}
			must(x.qpA.PostSend(p, swr))
			waitCQE(p, x.cqA, cqe[:])
			if !rdma {
				waitCQE(p, x.cqB, cqe[:])
			}
		}
		must(x.ctxA.DeregMR(p, smr))
		must(x.ctxB.DeregMR(p, dmr))
	})
	mustRun(x.eng)
	return ops
}

func regMRBatch(plat *perfmodel.Platform) int {
	x := newIBPair(plat)
	buf := x.n0.Mic.Alloc(64 << 10)
	x.eng.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < driverBatch; i++ {
			mr, err := x.ctxA.RegMRBuffer(p, x.pdA, buf)
			must(err)
			must(x.ctxA.DeregMR(p, mr))
		}
	})
	mustRun(x.eng)
	return driverBatch
}

// deliverBatch times FatTree.Deliver on a 1024-port tree between ports
// under one leaf or across leaves (a different destination leaf each
// call, so no single downlink's queue grows without bound).
func deliverBatch(cross bool) int {
	eng := sim.NewEngine()
	ft := topo.NewFatTree(eng, "fattree", 1024, topo.FatTreeConfig{})
	t := sim.Time(0)
	for i := 0; i < driverBatch; i++ {
		dst := 1
		if cross {
			dst = ft.Radix * (1 + i%(ft.Leaves()-1))
		}
		t = ft.Deliver(t, 0, dst, 1024, 5e9)
	}
	sink += int64(t)
	return driverBatch
}

func dmaCopyBatch(plat *perfmodel.Platform) int {
	const n = 64 << 10
	ops := driverBatch / 20
	eng := sim.NewEngine()
	node := machine.NewNode(0)
	bus := pcie.Attach(eng, plat, node)
	src, dst := node.Mic.Alloc(n), node.Host.Alloc(n)
	eng.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			must(bus.DMACopy(p, dst.Data, src.Data))
		}
	})
	mustRun(eng)
	return ops
}

func scifCallBatch(plat *perfmodel.Platform) int {
	eng := sim.NewEngine()
	pair := scif.NewPair(eng, plat)
	eng.Spawn("echo", func(p *sim.Proc) {
		p.MarkDaemon()
		for {
			m := pair.Host.Recv(p)
			pair.Host.Send(m.Kind, m.Payload)
		}
	})
	eng.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < driverBatch; i++ {
			sink += int64(pair.Mic.Call(p, 1, nil).Seq)
		}
	})
	mustRun(eng)
	return driverBatch
}

// dcfaNode is one node with the DCFA delegation daemon running.
func dcfaNode(plat *perfmodel.Platform) (*sim.Engine, *machine.Node, *dcfa.MicVerbs) {
	eng := sim.NewEngine()
	node := machine.NewNode(0)
	hca := ib.NewFabric(eng, plat).AttachHCA(node)
	mic, _ := dcfa.New(eng, plat, node, hca, pcie.Attach(eng, plat, node))
	return eng, node, mic
}

// dcfaRegMRBatch registers and deregisters one buffer through the
// command channel: one delegated command pair per operation.
func dcfaRegMRBatch(plat *perfmodel.Platform) int {
	ops := driverBatch / 4
	eng, node, mic := dcfaNode(plat)
	buf := node.Mic.Alloc(64 << 10)
	eng.Spawn("driver", func(p *sim.Proc) {
		pd, err := mic.AllocPD(p)
		must(err)
		for i := 0; i < ops; i++ {
			mr, err := mic.RegMRBuffer(p, pd, buf)
			must(err)
			must(mic.DeregMR(p, mr))
		}
	})
	mustRun(eng)
	return ops
}

func syncOffloadBatch(plat *perfmodel.Platform) int {
	const n = 64 << 10
	ops := driverBatch / 20
	eng, node, mic := dcfaNode(plat)
	src := node.Mic.Alloc(n)
	eng.Spawn("driver", func(p *sim.Proc) {
		omr, err := mic.RegOffloadMR(p, n)
		must(err)
		for i := 0; i < ops; i++ {
			must(mic.SyncOffloadMR(p, omr, 0, src.Data))
		}
		must(mic.DeregOffloadMR(p, omr))
	})
	mustRun(eng)
	return ops
}

func counterAddBatch() int {
	c := metrics.New().Counter("rank0", "driver")
	for i := 0; i < driverBatch; i++ {
		c.Add(1)
	}
	sink += c.Value()
	return driverBatch
}

func spanBatch() int {
	reg := metrics.New()
	for i := 0; i < driverBatch; i++ {
		reg.Begin(sim.Time(i), "rank0", "send").End(sim.Time(i + 1))
	}
	sink += int64(len(reg.Spans()))
	return driverBatch
}

func causalEmitBatch() int {
	rec := causal.New()
	for i := 0; i < driverBatch; i++ {
		rec.Emit(causal.Event{T: sim.Time(i), Kind: causal.EvHWCQE, Rank: 1, Aux: uint64(i)})
	}
	sink += int64(rec.Len())
	return driverBatch
}

func traceLogBatch() int {
	tr := trace.New(4096)
	for i := 0; i < driverBatch; i++ {
		tr.Log(sim.Time(i), "rank0", "eager", "seq=%d", i)
	}
	sink += int64(tr.Len())
	return driverBatch
}

// runDrivers runs every layer driver for budget each, then the model
// and instrumentation probes, and returns the global per-layer metrics.
func runDrivers(budget time.Duration) map[string]float64 {
	plat := perfmodel.Default()
	out := map[string]float64{}
	timeOnly := func(name string, batch func() int) {
		out[name], _ = measure(budget, batch)
	}
	timeOnly("sim.callback_ns", func() int { return callbackChain(0) })
	timeOnly("sim.callback_deep_ns", func() int { return callbackChain(4096) })
	timeOnly("sim.handoff_ns", handoffBatch)
	timeOnly("sim.sleep_fast_ns", sleepFastBatch)
	timeOnly("sim.signal_fanout_ns", fanoutBatch)
	timeOnly("sim.link_reserve_ns", linkReserveBatch)
	out["ib.send_cqe_ns"], out["ib.send_cqe_allocs"] = measure(budget, func() int { return ibBatch(plat, 64, 4, false) })
	out["ib.rdma_write_64k_ns"], out["ib.rdma_write_64k_allocs"] = measure(budget, func() int { return ibBatch(plat, 64<<10, 20, true) })
	timeOnly("ib.reg_mr_ns", func() int { return regMRBatch(plat) })
	timeOnly("topo.deliver_same_leaf_ns", func() int { return deliverBatch(false) })
	timeOnly("topo.deliver_cross_leaf_ns", func() int { return deliverBatch(true) })
	timeOnly("pcie.dma_copy_64k_ns", func() int { return dmaCopyBatch(plat) })
	timeOnly("scif.call_ns", func() int { return scifCallBatch(plat) })
	timeOnly("dcfa.reg_mr_ns", func() int { return dcfaRegMRBatch(plat) })
	timeOnly("dcfa.sync_offload_64k_ns", func() int { return syncOffloadBatch(plat) })
	timeOnly("instr.counter_add_ns", counterAddBatch)
	timeOnly("instr.span_ns", spanBatch)
	timeOnly("instr.causal_emit_ns", causalEmitBatch)
	timeOnly("instr.trace_log_ns", traceLogBatch)

	out["instr.msg_cost_ratio"] = instrCostRatio()
	modelProbes(plat, out)
	return out
}

// instrCostRatio is the host cost of one pp_eager round trip with
// metrics + causal + trace attached over the cost of one bare, both at
// a probe-sized iteration count in this process.
func instrCostRatio() float64 {
	perTrip := func(name string) float64 {
		def, err := findWorkload(name)
		must(err)
		d := *def
		d.Full = iters{Warmup: 2000, Timed: 20000}
		res := runRep(repOpts{def: &d, scale: scaleFull, seed: 7})
		if res.OpsFailed > 0 {
			panic("benchmark driver: instr probe failed: " + res.Err)
		}
		runtime.GC()
		return res.WallS / float64(d.Full.Timed)
	}
	return ratio(perTrip("pp_eager_instr"), perTrip("pp_eager"))
}

// modelProbes measures the simulated machine against the paper: peak
// inter-node bandwidth through the offloading send buffer (Fig 8's
// non-blocking exchange at 1 and 4 MiB) and the stencil's per-iteration
// time and speed-up over the serial program at 8 x 56 (Fig 12,
// compute charged but skipped). All three are virtual-time results and
// repeat exactly.
func modelProbes(plat *perfmodel.Platform, out map[string]float64) {
	peak := 0.0
	for _, n := range []int{1 << 20, 4 << 20} {
		const rounds = 10
		var per sim.Duration
		w := cluster.New(plat, 2).DCFAWorld(2, true)
		must(w.Run(func(r *core.Rank) error {
			p := r.Proc()
			other := 1 - r.ID()
			sb, rb := r.Mem(n), r.Mem(n)
			if err := r.Barrier(p); err != nil {
				return err
			}
			start := p.Now()
			for it := 0; it < rounds; it++ {
				if _, err := r.Sendrecv(p, other, 0, core.Whole(sb), other, 0, core.Whole(rb)); err != nil {
					return err
				}
			}
			if r.ID() == 0 {
				per = (p.Now() - start) / rounds
			}
			return nil
		}))
		if bw := float64(n) / per.Seconds() / 1e9; bw > peak {
			peak = bw
		}
	}
	out["model.bw_gbps"] = peak
	out["model.bw_err_pct"] = 100 * (peak - paperBWGBps) / paperBWGBps

	pr := stencil.Params{N: 1280, Iters: 20, Procs: 8, Threads: 56, SkipCompute: true}
	par, err := stencil.RunDCFA(plat, pr, true)
	must(err)
	ser, err := stencil.RunSerial(plat, pr)
	must(err)
	speedup := float64(ser.PerIter) / float64(par.PerIter)
	out["model.stencil_iter_us"] = par.PerIter.Micros()
	out["model.stencil_speedup_x"] = speedup
	out["model.stencil_speedup_err_pct"] = 100 * (speedup - paperStencilSpeedup) / paperStencilSpeedup
}
