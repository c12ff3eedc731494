package dcfa

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/faults"
	"repro/internal/ib"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/pcie"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// rig is a two-node cluster with DCFA installed on both co-processors.
type rig struct {
	eng  *sim.Engine
	plat *perfmodel.Platform
	node [2]*machine.Node
	hca  [2]*ib.HCA
	bus  [2]*pcie.Bus
	mic  [2]*MicVerbs
	dm   [2]*HostDaemon
}

func newRig() *rig {
	r := &rig{eng: sim.NewEngine(), plat: perfmodel.Default()}
	fab := ib.NewFabric(r.eng, r.plat)
	for i := 0; i < 2; i++ {
		r.node[i] = machine.NewNode(i)
		r.hca[i] = fab.AttachHCA(r.node[i])
		r.bus[i] = pcie.Attach(r.eng, r.plat, r.node[i])
		r.mic[i], r.dm[i] = New(r.eng, r.plat, r.node[i], r.hca[i], r.bus[i])
	}
	return r
}

func TestDelegatedRegMRCostsAndWorks(t *testing.T) {
	r := newRig()
	buf := r.node[0].Mic.Alloc(64 << 10)
	reg := metrics.New()
	r.bus[0].Metrics = reg
	var elapsed sim.Duration
	r.eng.Spawn("rank", func(p *sim.Proc) {
		pd, _ := r.mic[0].AllocPD(p)
		start := p.Now()
		mr, err := r.mic[0].RegMRBuffer(p, pd, buf)
		if err != nil {
			t.Error(err)
			return
		}
		elapsed = p.Now() - start
		if mr.LKey == 0 || mr.Dom != r.node[0].Mic {
			t.Errorf("MR %+v", mr)
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	floor := 2*r.plat.SCIFMsgLatency + r.plat.MRRegCost(64<<10) + r.plat.DelegationExtra
	if elapsed < floor {
		t.Fatalf("delegated registration took %v, must be ≥ %v (round trip + host work)", elapsed, floor)
	}
	served := reg.Counter("dcfad/node0", "served.alloc-pd").Value() + reg.Counter("dcfad/node0", "served.reg-mr").Value()
	if served != 2 {
		t.Fatalf("daemon served %d of the two requests", served)
	}
	if r.dm[0].LiveObjects() != 1 {
		t.Fatalf("hash table holds %d objects, want 1", r.dm[0].LiveObjects())
	}
}

func TestMicToMicRDMAWriteViaDCFA(t *testing.T) {
	r := newRig()
	src := r.node[0].Mic.Alloc(4096)
	dst := r.node[1].Mic.Alloc(4096)
	for i := range src.Data {
		src.Data[i] = byte(i * 3)
	}
	// Exchange MR info "out of band" through shared test state, like the
	// paper's bootstrap.
	type side struct {
		qp *ib.QP
		cq *ib.CQ
		mr *ib.MR
	}
	var s [2]side
	ready := sim.NewSignal(r.eng)
	r.eng.Spawn("rank1", func(p *sim.Proc) {
		v := r.mic[1]
		pd, _ := v.AllocPD(p)
		s[1].cq, _ = v.CreateCQ(p, 256)
		s[1].qp, _ = v.CreateQP(p, pd, s[1].cq, s[1].cq)
		var err error
		s[1].mr, err = v.RegMRBuffer(p, pd, dst)
		if err != nil {
			t.Error(err)
			return
		}
		if s[0].qp == nil {
			ready.Wait(p)
		}
		if err := s[1].qp.Connect(r.hca[0].LID, s[0].qp.QPN); err != nil {
			t.Error(err)
		}
	})
	r.eng.Spawn("rank0", func(p *sim.Proc) {
		v := r.mic[0]
		pd, _ := v.AllocPD(p)
		s[0].cq, _ = v.CreateCQ(p, 256)
		s[0].qp, _ = v.CreateQP(p, pd, s[0].cq, s[0].cq)
		var err error
		s[0].mr, err = v.RegMRBuffer(p, pd, src)
		if err != nil {
			t.Error(err)
			return
		}
		ready.Broadcast()
		// Wait for peer setup.
		for s[1].mr == nil || s[1].qp.State != ib.QPConnected {
			p.Sleep(10 * sim.Microsecond)
		}
		if err := s[0].qp.Connect(r.hca[1].LID, s[1].qp.QPN); err != nil {
			t.Error(err)
			return
		}
		err = s[0].qp.PostSend(p, &ib.SendWR{
			WRID: 1, Opcode: ib.OpRDMAWrite, Signaled: true,
			SGL:    []ib.SGE{{Addr: src.Addr, Len: 4096, LKey: s[0].mr.LKey}},
			Remote: ib.RemoteAddr{Addr: s[1].mr.Addr, RKey: s[1].mr.RKey},
		})
		if err != nil {
			t.Error(err)
			return
		}
		cqes := s[0].cq.WaitPoll(p, 1)
		if cqes[0].Status != ib.StatusSuccess {
			t.Errorf("completion %+v", cqes[0])
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Data, src.Data) {
		t.Fatal("mic→mic RDMA write via DCFA failed")
	}
}

// TestOffloadMRSyncStagesBytes also holds delegated registration to the
// adapter's ledger: a plain MR and an offload region, both registered
// through the daemon, count on the HCA until deregistered, and then the
// HCA is back at its starting count.
func TestOffloadMRSyncStagesBytes(t *testing.T) {
	r := newRig()
	src := r.node[0].Mic.Alloc(8192)
	for i := range src.Data {
		src.Data[i] = byte(255 - i%251)
	}
	start := r.hca[0].LiveMRs()
	r.bus[0].Metrics = metrics.New()
	r.eng.Spawn("rank", func(p *sim.Proc) {
		v := r.mic[0]
		pd, _ := v.AllocPD(p)
		mr, err := v.RegMRBuffer(p, pd, src)
		if err != nil {
			t.Error(err)
			return
		}
		omr, err := v.RegOffloadMR(p, 8192)
		if err != nil {
			t.Error(err)
			return
		}
		if live := r.hca[0].LiveMRs(); live != start+2 {
			t.Errorf("HCA holds %d registrations with an MR and an offload region live, want %d", live, start+2)
		}
		if err := v.DeregMR(p, mr); err != nil {
			t.Error(err)
		}
		if omr.HostBuf.Dom != r.node[0].Host {
			t.Error("bounce buffer not in host memory")
		}
		if err := v.SyncOffloadMR(p, omr, 0, src.Data); err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(omr.HostBuf.Data, src.Data) {
			t.Error("sync did not stage bytes into host buffer")
		}
		copies := r.bus[0].Metrics.Counter("pcie/node0", "dma.copies").Value()
		moved := r.bus[0].Metrics.Counter("pcie/node0", "dma.bytes").Value()
		if copies != 1 || moved != 8192 {
			t.Errorf("stats %d/%d", copies, moved)
		}
		if err := v.DeregOffloadMR(p, omr); err != nil {
			t.Error(err)
		}
		if err := v.SyncOffloadMR(p, omr, 0, src.Data[:16]); err == nil {
			t.Error("sync on released offload MR succeeded")
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if r.dm[0].LiveObjects() != 0 {
		t.Fatalf("hash table holds %d objects after dereg, want 0", r.dm[0].LiveObjects())
	}
	if live := r.hca[0].LiveMRs(); live != start {
		t.Fatalf("HCA holds %d registrations after dereg, started with %d", live, start)
	}
	if r.node[0].Host.BytesLive != 0 {
		t.Fatalf("host bounce memory leaked: %d bytes", r.node[0].Host.BytesLive)
	}
}

func TestSyncOffloadMRRangeChecked(t *testing.T) {
	r := newRig()
	src := r.node[0].Mic.Alloc(128)
	r.eng.Spawn("rank", func(p *sim.Proc) {
		v := r.mic[0]
		omr, err := v.RegOffloadMR(p, 64)
		if err != nil {
			t.Error(err)
			return
		}
		if err := v.SyncOffloadMR(p, omr, 0, src.Data); err == nil {
			t.Error("out-of-range sync succeeded")
		}
		if err := v.SyncOffloadMR(p, omr, -1, src.Data[:4]); err == nil {
			t.Error("negative-offset sync succeeded")
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOffloadedSendBeatsDirectPhiSendForBulk(t *testing.T) {
	// The heart of §IV-B4: a 1 MiB transfer staged through the host
	// bounce buffer completes faster than one DMA-read from Phi memory.
	const n = 1 << 20
	r := newRig()
	src := r.node[0].Mic.Alloc(n)
	dst := r.node[1].Mic.Alloc(n)
	for i := range src.Data {
		src.Data[i] = byte(i)
	}
	var direct, offloaded sim.Duration
	r.eng.Spawn("rank", func(p *sim.Proc) {
		v0, v1 := r.mic[0], r.mic[1]
		pd0, _ := v0.AllocPD(p)
		pd1, _ := v1.AllocPD(p)
		cq0, _ := v0.CreateCQ(p, 64)
		cq1, _ := v1.CreateCQ(p, 64)
		qp0, _ := v0.CreateQP(p, pd0, cq0, cq0)
		qp1, _ := v1.CreateQP(p, pd1, cq1, cq1)
		if err := ib.ConnectPair(qp0, qp1); err != nil {
			t.Error(err)
			return
		}
		smr, err := v0.RegMRBuffer(p, pd0, src)
		if err != nil {
			t.Error(err)
			return
		}
		dmr, err := v1.RegMRBuffer(p, pd1, dst)
		if err != nil {
			t.Error(err)
			return
		}

		// Direct: RDMA write straight from Phi memory.
		start := p.Now()
		qp0.PostSend(p, &ib.SendWR{WRID: 1, Opcode: ib.OpRDMAWrite, Signaled: true,
			SGL:    []ib.SGE{{Addr: src.Addr, Len: n, LKey: smr.LKey}},
			Remote: ib.RemoteAddr{Addr: dmr.Addr, RKey: dmr.RKey}})
		cq0.WaitPoll(p, 1)
		direct = p.Now() - start

		// Offloaded: sync to host bounce, send from host memory.
		omr, err := v0.RegOffloadMR(p, n)
		if err != nil {
			t.Error(err)
			return
		}
		start = p.Now()
		if err := v0.SyncOffloadMR(p, omr, 0, src.Data); err != nil {
			t.Error(err)
			return
		}
		qp0.PostSend(p, &ib.SendWR{WRID: 2, Opcode: ib.OpRDMAWrite, Signaled: true,
			SGL:    []ib.SGE{{Addr: omr.HostBuf.Addr, Len: n, LKey: omr.HostMR.LKey}},
			Remote: ib.RemoteAddr{Addr: dmr.Addr, RKey: dmr.RKey}})
		cq0.WaitPoll(p, 1)
		offloaded = p.Now() - start
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Data, src.Data) {
		t.Fatal("payload mismatch")
	}
	if offloaded >= direct {
		t.Fatalf("offloaded %v not faster than direct %v", offloaded, direct)
	}
	// Paper: direct Phi-sourced IB is >4× slower than host-sourced;
	// offloading recovers most of it (sync+wire ≈ 2× the wire).
	if ratio := float64(direct) / float64(offloaded); ratio < 2 {
		t.Fatalf("offload speedup %.2f×, want ≥2×", ratio)
	}
}

func TestDeregMRRemovesDelegatedObject(t *testing.T) {
	r := newRig()
	buf := r.node[0].Mic.Alloc(4096)
	r.eng.Spawn("rank", func(p *sim.Proc) {
		v := r.mic[0]
		pd, _ := v.AllocPD(p)
		mr, err := v.RegMRBuffer(p, pd, buf)
		if err != nil {
			t.Error(err)
			return
		}
		if err := v.DeregMR(p, mr); err != nil {
			t.Error(err)
		}
		if err := v.DeregMR(p, mr); err == nil {
			t.Error("double dereg succeeded")
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if r.dm[0].LiveObjects() != 0 {
		t.Fatalf("hash table holds %d objects, want 0", r.dm[0].LiveObjects())
	}
}

func TestDelegatedRegMRFaultsOnBadRange(t *testing.T) {
	r := newRig()
	r.eng.Spawn("rank", func(p *sim.Proc) {
		v := r.mic[0]
		pd, _ := v.AllocPD(p)
		if _, err := v.RegMR(p, pd, r.node[0].Mic, 0xDEAD0000, 64); err == nil {
			t.Error("registration of unmapped range succeeded")
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// DeregMR finds the daemon's handle in the client-side map RegMR
// filled, so its cost does not depend on how many objects the daemon
// holds. testing.AllocsPerRun cannot see the difference (the scan this
// replaces built one slice, however long), so the test compares bytes.
func TestDeregMRCostIndependentOfTableSize(t *testing.T) {
	r := newRig()
	r.eng.Spawn("rank", func(p *sim.Proc) {
		v, d := r.mic[0], r.dm[0]
		pd, _ := v.AllocPD(p)
		buf := r.node[0].Mic.Alloc(4096)
		pairBytes := func() uint64 {
			const runs = 64
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				mr, err := v.RegMRBuffer(p, pd, buf)
				if err != nil {
					t.Error(err)
					return 0
				}
				if err := v.DeregMR(p, mr); err != nil {
					t.Error(err)
				}
			}
			runtime.ReadMemStats(&after)
			return (after.TotalAlloc - before.TotalAlloc) / runs
		}
		start := d.LiveObjects()
		alone := pairBytes()
		live := make([]*ib.MR, 1000)
		for i := range live {
			var err error
			if live[i], err = v.RegMRBuffer(p, pd, buf); err != nil {
				t.Error(err)
				return
			}
		}
		crowded := pairBytes()
		if crowded > alone+alone/4+64 {
			t.Errorf("a RegMR+DeregMR pair allocates %d B beside 1000 live registrations, %d B alone", crowded, alone)
		}
		for _, mr := range live {
			if err := v.DeregMR(p, mr); err != nil {
				t.Error(err)
			}
		}
		if got := d.LiveObjects(); got != start {
			t.Errorf("daemon holds %d objects after releasing everything, started with %d", got, start)
		}
		if len(v.mrHandles) != 0 {
			t.Errorf("client still maps %d handles", len(v.mrHandles))
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPackIsACommand: a delegated pack rides the CMD channel like any
// other command. Its host half runs in the daemon's process, and its
// round trip is the two crossings plus the host's pack rate.
func TestPackIsACommand(t *testing.T) {
	r := newRig()
	reg := metrics.New()
	r.bus[0].Metrics = reg
	const n = 4 << 10
	var ran bool
	var elapsed sim.Duration
	r.eng.Spawn("rank", func(p *sim.Proc) {
		start := p.Now()
		if err := r.mic[0].Pack(p, n, func() { ran = true }); err != nil {
			t.Error(err)
		}
		elapsed = p.Now() - start
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := 2*r.plat.SCIFMsgLatency + sim.Duration(float64(n)/r.plat.HostPackRate*float64(sim.Second))
	if !ran || elapsed != want {
		t.Fatalf("pack ran=%v in %v, want ran in %v", ran, elapsed, want)
	}
	if c, s := reg.Counter("dcfa/node0", "cmd.pack").Value(), reg.Counter("dcfad/node0", "served.pack").Value(); c != 1 || s != 1 {
		t.Fatalf("cmd.pack %d, served.pack %d, want 1 and 1", c, s)
	}
	if got := reg.Histogram("dcfa/node0", "cmd-rtt.pack").Max(); got != int64(want) {
		t.Fatalf("cmd-rtt.pack %d ns, want %d", got, want)
	}
}

// TestRejectedPackRunsNoHostWork: a pack the channel rejects until its
// deadline fails with a CmdTimeoutError and never runs its gather, so
// the caller can pack locally without packing twice.
func TestRejectedPackRunsNoHostWork(t *testing.T) {
	r := newRig()
	plan := faults.NewPlan(1)
	plan.Cmd = 1
	r.bus[0].Faults = faults.New(r.eng, plan)
	ran := false
	var err error
	r.eng.Spawn("rank", func(p *sim.Proc) {
		err = r.mic[0].Pack(p, 4096, func() { ran = true })
	})
	if runErr := r.eng.Run(); runErr != nil {
		t.Fatal(runErr)
	}
	var cte *CmdTimeoutError
	if !errors.As(err, &cte) || cte.Cmd != "pack" {
		t.Fatalf("rejected pack returned %v, want a CmdTimeoutError for pack", err)
	}
	if ran {
		t.Fatal("a rejected pack ran its host half")
	}
}
