package core_test

// Measured hot-path cost gate (DESIGN.md §7e): each row runs one
// steady-state workload and pins the heap allocations it performs per
// 1000 operations, counted by runtime.MemStats.Mallocs between two
// marks inside the running simulation. The ceilings are the values
// this tree measures; a new per-message or per-event allocation moves
// a row by 1000 and fails the test. benchmark/'s alloc_mb and
// ib.*_allocs are the end-to-end counterparts.

import (
	"fmt"
	"runtime"
	"testing"

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

func (m *mallocMarks) open()         { runtime.ReadMemStats(&m.m0) }
func (m *mallocMarks) close()        { runtime.ReadMemStats(&m.m1) }
func (m *mallocMarks) count() uint64 { return m.m1.Mallocs - m.m0.Mallocs }

// worldRow is a table row that runs op on both ranks of a 2-rank DCFA
// world for mallocWarm+mallocOps iterations and returns the allocations
// of the whole process (both ranks, the HCAs, the engine) during rank
// 0's last mallocOps iterations. onPath checks rank 0's protocol
// counters, so a row cannot silently measure another protocol.
func worldRow(offload bool, size int, op func(r *core.Rank, p *sim.Proc, buf *machine.Buffer) error, onPath func(st core.Stats) bool) func(t *testing.T) uint64 {
	return func(t *testing.T) uint64 {
		_, w := pair(offload)
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
		return marks.count()
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

// sendCQEMallocs posts mallocOps signaled 64-byte SENDs into posted
// receives on a bare connected QP pair, polling both completions.
func sendCQEMallocs(t *testing.T) uint64 {
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
	return marks.count()
}

// callbackMallocs runs a self-rescheduling Engine.After chain: one
// callback-only calendar event per operation, no process involved.
func callbackMallocs(t *testing.T) uint64 {
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
	return marks.count()
}

// handoffMallocs has two processes sleep on interleaved deadlines, so
// every Sleep misses the lookahead fast path: one operation is one
// park/resume round trip with a goroutine switch.
func handoffMallocs(t *testing.T) uint64 {
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
	return marks.count()
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
	rows := []struct {
		name    string
		per1000 uint64 // ceiling: heap allocations per 1000 operations
		run     func(t *testing.T) uint64
	}{
		{"eager-64B-roundtrip", 16000, worldRow(true, 64, roundTrip, eager)},
		{"eager-1KiB-roundtrip", 16000, worldRow(true, 1<<10, roundTrip, eager)},
		{"rndv-read-64KiB-oneway", 18000, worldRow(false, 64<<10, senderFirst, direct)},
		{"offload-64KiB-roundtrip", 47995, worldRow(true, 64<<10, roundTrip, offloaded)},
		{"ib-send-cqe-64B", 7000, sendCQEMallocs},
		{"sim-callback-event", 0, callbackMallocs},
		{"sim-proc-handoff", 0, handoffMallocs},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			got := row.run(t)
			t.Logf("%d mallocs per %d ops", got, mallocOps)
			if got > row.per1000 {
				t.Errorf("%d heap allocations per %d operations, ceiling %d: the hot path gained an allocation (go build -gcflags=-m ./internal/... names escaping values; go test -memprofile with -memprofilerate=1 names the call stack)", got, mallocOps, row.per1000)
			}
		})
	}
}
