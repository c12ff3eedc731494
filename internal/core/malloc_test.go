package core_test

// Measured hot-path cost gate (DESIGN.md §7e): each row runs one
// steady-state workload and pins the heap allocations it performs per
// 1000 operations — how many (runtime.MemStats.Mallocs) and how many
// bytes (TotalAlloc) — between two marks inside the running simulation.
// The count ceilings are the values this tree measures; a new
// per-message or per-event allocation moves a row by 1000 and fails the
// test. A count cannot tell a 256 KiB payload buffer from a 16-byte
// closure, so each row also carries a bytes ceiling, about a tenth above
// what this tree measures and far below one payload per message.
// benchmark/'s alloc_mb and ib.*_allocs are the end-to-end counterparts.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ib"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

const (
	// mallocWarm operations run before the first mark: the free lists,
	// the calendar and the request map take over a thousand messages to
	// reach the size they keep.
	mallocWarm = 2000
	mallocOps  = 1000 // operations between the marks
)

// mallocMarks counts heap allocations between open and close. The
// MemStats buffers are fields so the marks themselves allocate nothing.
type mallocMarks struct{ m0, m1 runtime.MemStats }

func (m *mallocMarks) open()  { runtime.ReadMemStats(&m.m0) }
func (m *mallocMarks) close() { runtime.ReadMemStats(&m.m1) }

// cost is the allocations between the marks: how many, and their bytes.
func (m *mallocMarks) cost() (mallocs, bytes uint64) {
	return m.m1.Mallocs - m.m0.Mallocs, m.m1.TotalAlloc - m.m0.TotalAlloc
}

// worldRow is ranksRow on a 2-rank world with the default configuration.
func worldRow(m cluster.Mode, size int, op func(r *core.Rank, p *sim.Proc, buf *machine.Buffer) error, onPath func(st core.Stats) bool) func(t *testing.T) (mallocs, bytes uint64) {
	return ranksRow(m, 2, size, nil, op, onPath)
}

// ranksRow is a table row that runs op on every rank of a world of mode
// m (its configuration adjusted by tune, if any) for mallocWarm+mallocOps
// iterations and returns the allocations of the whole process (every
// rank, the HCAs, the engine) during rank 0's last mallocOps iterations.
// onPath checks rank 0's protocol counters, so a row cannot silently
// measure another protocol.
func ranksRow(m cluster.Mode, ranks, size int, tune func(cfg *core.Config), op func(r *core.Rank, p *sim.Proc, buf *machine.Buffer) error, onPath func(st core.Stats) bool) func(t *testing.T) (mallocs, bytes uint64) {
	return func(t *testing.T) (mallocs, bytes uint64) {
		w := cluster.New(perfmodel.Default(), ranks).World(m, ranks)
		if tune != nil {
			tune(&w.Cfg)
		}
		var marks mallocMarks
		var stats core.Stats
		err := w.Run(func(r *core.Rank) error {
			p := r.Proc()
			buf := r.Mem(size)
			for it := 0; it < mallocWarm+mallocOps; it++ {
				if r.ID() == 0 && it == mallocWarm {
					marks.open()
				}
				if err := op(r, p, buf); err != nil {
					return err
				}
			}
			if r.ID() == 0 {
				marks.close()
				stats = r.Stats
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !onPath(stats) {
			t.Fatalf("the workload left its protocol path: %+v", stats)
		}
		return marks.cost()
	}
}

// roundTrip is one blocking ping-pong iteration.
func roundTrip(r *core.Rank, p *sim.Proc, buf *machine.Buffer) error {
	if r.ID() == 0 {
		if err := r.Send(p, 1, 1, core.Whole(buf)); err != nil {
			return err
		}
		_, err := r.Recv(p, 1, 1, core.Whole(buf))
		return err
	}
	if _, err := r.Recv(p, 0, 1, core.Whole(buf)); err != nil {
		return err
	}
	return r.Send(p, 0, 1, core.Whole(buf))
}

// ringStep is one blocking Sendrecv around the ring: the first half of
// buf to the right neighbour, the second half from the left one.
func ringStep(r *core.Rank, p *sim.Proc, buf *machine.Buffer) error {
	n, half := r.Size(), len(buf.Data)/2
	_, err := r.Sendrecv(p, (r.ID()+1)%n, 1, core.Whole(buf).Sub(0, half), (r.ID()+n-1)%n, 1, core.Whole(buf).Sub(half, half))
	return err
}

// allreduce sums buf's float64s across the world.
func allreduce(r *core.Rank, p *sim.Proc, buf *machine.Buffer) error {
	return r.Allreduce(p, core.Whole(buf), core.OpSumF64)
}

// senderFirst is one 0→1 transfer whose receive is posted long after
// the RTS arrived, so the receiver completes it with an RDMA read.
func senderFirst(r *core.Rank, p *sim.Proc, buf *machine.Buffer) error {
	if r.ID() == 0 {
		return r.Send(p, 1, 1, core.Whole(buf))
	}
	p.Sleep(400 * sim.Microsecond)
	_, err := r.Recv(p, 0, 1, core.Whole(buf))
	return err
}

const (
	window8Msg = 256 << 10
	window8Buf = 8*window8Msg + 4 // eight messages and the ack
)

// window8 is bw_rndv_offload's operation: rank 0 streams a window of
// eight rendezvous messages from eight slices of buf through the offload
// send buffer, rank 1 receives them into its own eight and returns a
// 4-byte ack from the tail of buf.
func window8(r *core.Rank, p *sim.Proc, buf *machine.Buffer) error {
	var reqs [8]*core.Request
	for k := range reqs {
		s := core.Whole(buf).Sub(k*window8Msg, window8Msg)
		var err error
		if r.ID() == 0 {
			reqs[k], err = r.Isend(p, 1, k, s)
		} else {
			reqs[k], err = r.Irecv(p, 0, k, s)
		}
		if err != nil {
			return err
		}
	}
	if err := r.WaitAll(p, reqs[:]...); err != nil {
		return err
	}
	ack := core.Whole(buf).Sub(8*window8Msg, 4)
	if r.ID() == 0 {
		_, err := r.Recv(p, 1, 8, ack)
		return err
	}
	return r.Send(p, 0, 8, ack)
}

// selfUnexpected is one loopback message sent before its receive is
// posted: the payload waits in a pooled arrival record.
func selfUnexpected(r *core.Rank, p *sim.Proc, buf *machine.Buffer) error {
	half := len(buf.Data) / 2
	req, err := r.Isend(p, r.ID(), 1, core.Whole(buf).Sub(0, half))
	if err != nil {
		return err
	}
	if _, err := r.Recv(p, r.ID(), 1, core.Whole(buf).Sub(half, half)); err != nil {
		return err
	}
	_, err = r.Wait(p, req)
	return err
}

// sendCQEMallocs posts mallocOps signaled 64-byte SENDs into posted
// receives on a bare connected QP pair, polling both completions.
func sendCQEMallocs(t *testing.T) (mallocs, bytes uint64) {
	const n = 64
	eng := sim.NewEngine()
	fab := ib.NewFabric(eng, perfmodel.Default())
	n0, n1 := machine.NewNode(0), machine.NewNode(1)
	ctxA, ctxB := fab.AttachHCA(n0).Open(machine.MicMem), fab.AttachHCA(n1).Open(machine.MicMem)
	pdA, pdB := ctxA.AllocPD(), ctxB.AllocPD()
	cqA, cqB := ctxA.CreateCQ(16), ctxB.CreateCQ(16)
	qpA, qpB := ctxA.CreateQP(pdA, cqA, cqA), ctxB.CreateQP(pdB, cqB, cqB)
	if err := ib.ConnectPair(qpA, qpB); err != nil {
		t.Fatal(err)
	}
	src, dst := n0.Mic.Alloc(n), n1.Mic.Alloc(n)
	var marks mallocMarks
	var runErr error
	eng.Spawn("driver", func(p *sim.Proc) {
		runErr = func() error {
			smr, err := ctxA.RegMRBuffer(p, pdA, src)
			if err != nil {
				return err
			}
			dmr, err := ctxB.RegMRBuffer(p, pdB, dst)
			if err != nil {
				return err
			}
			swr := &ib.SendWR{Opcode: ib.OpSend, Signaled: true, SGL: []ib.SGE{{Addr: src.Addr, Len: n, LKey: smr.LKey}}}
			rwr := &ib.RecvWR{SGL: []ib.SGE{{Addr: dst.Addr, Len: n, LKey: dmr.LKey}}}
			var cqe [1]ib.CQE
			for i := 0; i < mallocWarm+mallocOps; i++ {
				if i == mallocWarm {
					marks.open()
				}
				if err := qpB.PostRecv(p, rwr); err != nil {
					return err
				}
				if err := qpA.PostSend(p, swr); err != nil {
					return err
				}
				for _, cq := range []*ib.CQ{cqA, cqB} {
					for cq.PollInto(p, cqe[:]) == 0 {
						cq.Notify.Wait(p)
					}
					if cqe[0].Status != ib.StatusSuccess {
						return fmt.Errorf("completion status %v", cqe[0].Status)
					}
				}
			}
			marks.close()
			if err := ctxA.DeregMR(p, smr); err != nil {
				return err
			}
			return ctxB.DeregMR(p, dmr)
		}()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	return marks.cost()
}

// callbackMallocs runs a self-rescheduling Engine.After chain: one
// callback-only calendar event per operation, no process involved.
func callbackMallocs(t *testing.T) (mallocs, bytes uint64) {
	eng := sim.NewEngine()
	var marks mallocMarks
	n := 0
	var step func()
	step = func() {
		switch n {
		case mallocWarm:
			marks.open()
		case mallocWarm + mallocOps:
			marks.close()
			return
		}
		n++
		eng.After(1, step)
	}
	eng.After(1, step)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return marks.cost()
}

// handoffMallocs has two processes sleep on interleaved deadlines, so
// every Sleep misses the lookahead fast path: one operation is one park
// and one dispatch of the other process, one coroutine switch.
func handoffMallocs(t *testing.T) (mallocs, bytes uint64) {
	eng := sim.NewEngine()
	var marks mallocMarks
	for k := 0; k < 2; k++ {
		eng.Spawn("sleeper", func(p *sim.Proc) {
			p.Sleep(sim.Duration(k))
			for i := 0; i < (mallocWarm+mallocOps)/2; i++ {
				if k == 0 && i == mallocWarm/2 {
					marks.open()
				}
				p.Sleep(2)
			}
			if k == 0 {
				marks.close()
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return marks.cost()
}

func TestHotPathMallocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	// As testing.AllocsPerRun does: with one P the runtime's own per-P
	// caches (sudogs for the proc handoff) stop moving between
	// processors, and the counts repeat exactly.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	eager := func(st core.Stats) bool { return st.EagerSends >= mallocOps && st.RndvSends == 0 }
	direct := func(st core.Stats) bool { return st.RndvSends >= mallocOps && st.OffloadedSends == 0 }
	offloaded := func(st core.Stats) bool { return st.OffloadedSends >= mallocOps }
	offloadedWrites := func(st core.Stats) bool { return st.OffloadedSends >= 8*mallocOps && st.RndvWrites > 0 }
	loopback := func(st core.Stats) bool { return st.SelfMsgs >= mallocOps }
	rows := []struct {
		name    string
		per1000 uint64 // ceiling: heap allocations per 1000 operations
		bytes   uint64 // ceiling: bytes those allocations take
		run     func(t *testing.T) (mallocs, bytes uint64)
	}{
		// Blocking eager traffic allocates nothing: requests, in-flight
		// work-request records, CQ and queue slots are all recycled. The
		// provider seam costs nothing either: the host and the proxied
		// provider sit at the same zero as DCFA.
		{"eager-64B-roundtrip", 0, 0, worldRow(cluster.ModeDCFA, 64, roundTrip, eager)},
		{"eager-64B-roundtrip-host", 0, 0, worldRow(cluster.ModeHost, 64, roundTrip, eager)},
		{"eager-64B-roundtrip-proxy", 0, 0, worldRow(cluster.ModeIntelPhi, 64, roundTrip, eager)},
		{"eager-1KiB-roundtrip", 0, 0, worldRow(cluster.ModeDCFA, 1<<10, roundTrip, eager)},
		{"sendrecv-1KiB-ring4-step", 0, 0, ranksRow(cluster.ModeDCFA, 4, 2<<10, nil, ringStep, eager)},
		// The ring allreduce's 14 Sendrecv steps allocate nothing. What is
		// left is per call, not per message: each of the 8 ranks takes its
		// one-chunk scratch buffer from its memory domain (a Buffer and its
		// 1 KiB of bytes) — modelled memory at a fresh address each call.
		{"allreduce-8KiB-ring8", 16000, 9_400_000, ranksRow(cluster.ModeDCFA, 8, 8<<10, func(cfg *core.Config) { cfg.CollAllreduce = "ring" }, allreduce, eager)},
		// A direct rendezvous allocates nothing either: a request's cache
		// pins are an array inside it. What an offloaded one still
		// allocates per message is the delegated commands and the DMA
		// descriptor; window8's requests are the caller's (Isend/Irecv), so
		// they are not recycled.
		{"rndv-read-64KiB-oneway", 0, 0, worldRow(cluster.ModeDCFABase, 64<<10, senderFirst, direct)},
		{"offload-64KiB-roundtrip", 12000, 458_000, worldRow(cluster.ModeDCFA, 64<<10, roundTrip, offloaded)},
		{"rndv-write-256KiB-window8-offload", 64000, 5_500_000, worldRow(cluster.ModeDCFA, window8Buf, window8, offloadedWrites)},
		{"self-send-1KiB-unexpected", 2000, 458_000, worldRow(cluster.ModeDCFA, 2<<10, selfUnexpected, loopback)},
		{"ib-send-cqe-64B", 0, 0, sendCQEMallocs},
		{"sim-callback-event", 0, 0, callbackMallocs},
		{"sim-proc-handoff", 0, 0, handoffMallocs},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			mallocs, bytes := row.run(t)
			t.Logf("%d mallocs, %d bytes per %d ops", mallocs, bytes, mallocOps)
			if mallocs > row.per1000 {
				t.Errorf("%d heap allocations per %d operations, ceiling %d: the hot path gained an allocation (go build -gcflags=-m ./internal/... names escaping values; go test -memprofile with -memprofilerate=1 names the call stack)", mallocs, mallocOps, row.per1000)
			}
			if bytes > row.bytes {
				t.Errorf("%d bytes allocated per %d operations, ceiling %d: an allocation on the hot path grew (a payload-sized step is a per-message buffer)", bytes, mallocOps, row.bytes)
			}
		})
	}
}
