package pcie

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/causal"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

func setup() (*sim.Engine, *Bus, *machine.Node) {
	eng := sim.NewEngine()
	plat := perfmodel.Default()
	n := machine.NewNode(0)
	return eng, Attach(eng, plat, n), n
}

func TestDMACopyMovesBytesAtCompletion(t *testing.T) {
	eng, bus, n := setup()
	src := n.Mic.Alloc(4096)
	dst := n.Host.Alloc(4096)
	for i := range src.Data {
		src.Data[i] = byte(i * 7)
	}
	var elapsed sim.Time
	eng.Spawn("xfer", func(p *sim.Proc) {
		if err := bus.DMACopy(p, dst.Data, src.Data); err != nil {
			t.Error(err)
		}
		elapsed = p.Now()
	})
	// A second process looks at the destination while the copy is on
	// the wire.
	eng.Spawn("peek", func(p *sim.Proc) {
		p.Sleep(1)
		if dst.Data[0] == src.Data[0] && dst.Data[100] == src.Data[100] {
			t.Error("bytes visible before virtual completion")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Data, src.Data) {
		t.Fatal("DMA did not copy bytes")
	}
	plat := perfmodel.Default()
	want := plat.DMAEngineLatency + sim.Duration(4096/plat.DMAEngineBandwidth*float64(sim.Second))
	if elapsed != want {
		t.Fatalf("DMA time %v, want %v", elapsed, want)
	}
}

func TestDMACopyBlocking(t *testing.T) {
	eng, bus, n := setup()
	src := n.Mic.Alloc(100)
	dst := n.Host.Alloc(100)
	src.Data[42] = 0xEE
	bus.Metrics = metrics.New()
	eng.Spawn("xfer", func(p *sim.Proc) {
		if err := bus.DMACopy(p, dst.Data, src.Data); err != nil {
			t.Error(err)
		}
		if dst.Data[42] != 0xEE {
			t.Error("blocking DMA returned before copy")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	copies := bus.Metrics.Counter("pcie/node0", "dma.copies").Value()
	moved := bus.Metrics.Counter("pcie/node0", "dma.bytes").Value()
	if copies != 1 || moved != 100 {
		t.Fatalf("stats copies=%d bytes=%d", copies, moved)
	}
}

func TestDMALengthMismatchPanics(t *testing.T) {
	eng, bus, n := setup()
	dst, src := n.Host.Alloc(10), n.Mic.Alloc(20)
	eng.Spawn("xfer", func(p *sim.Proc) { bus.DMACopy(p, dst.Data, src.Data) })
	var pe *sim.PanicError
	if err := eng.Run(); !errors.As(err, &pe) {
		t.Fatalf("length mismatch did not panic: Run returned %v", err)
	}
}

func TestDMASerializesOnEngine(t *testing.T) {
	eng, bus, n := setup()
	src := n.Mic.Alloc(1 << 20)
	d1 := n.Host.Alloc(1 << 20)
	d2 := n.Host.Alloc(1 << 20)
	var t1, t2 sim.Time
	// Two processes start a copy each at time 0, in spawn order: the
	// second queues behind the first on the one engine.
	for _, c := range []struct {
		dst *machine.Buffer
		at  *sim.Time
	}{{d1, &t1}, {d2, &t2}} {
		eng.Spawn("copier", func(p *sim.Proc) {
			if err := bus.DMACopy(p, c.dst.Data, src.Data); err != nil {
				t.Error(err)
			}
			*c.at = p.Now()
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	plat := perfmodel.Default()
	occ := sim.Duration(float64(1<<20) / plat.DMAEngineBandwidth * float64(sim.Second))
	if t2-t1 != occ {
		t.Fatalf("second DMA completed %v after first, want one occupancy %v", t2-t1, occ)
	}
}

func TestOffloadTransferCostsOverheadPlusBandwidth(t *testing.T) {
	eng, bus, n := setup()
	plat := perfmodel.Default()
	src := n.Host.Alloc(128)
	dst := n.Mic.Alloc(128)
	var elapsed sim.Time
	eng.Spawn("off", func(p *sim.Proc) {
		bus.OffloadTransfer(p, dst.Data, src.Data)
		elapsed = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Small transfer: dominated by the fixed overhead.
	if elapsed < plat.OffloadTransferOverhead {
		t.Fatalf("offload transfer %v below fixed overhead %v", elapsed, plat.OffloadTransferOverhead)
	}
	if elapsed > plat.OffloadTransferOverhead+sim.Microsecond {
		t.Fatalf("128 B offload transfer %v too slow", elapsed)
	}
}

func TestOffloadSlowerThanRawDMAForBulk(t *testing.T) {
	// The whole point of the offload-send-buffer design: DCFA's raw DMA
	// engine beats the COI path.
	eng, bus, n := setup()
	src := n.Mic.Alloc(1 << 20)
	dstA := n.Host.Alloc(1 << 20)
	dstB := n.Host.Alloc(1 << 20)
	var dmaT, coiT sim.Duration
	eng.Spawn("m", func(p *sim.Proc) {
		start := p.Now()
		bus.DMACopy(p, dstA.Data, src.Data)
		dmaT = p.Now() - start
		start = p.Now()
		bus.OffloadTransfer(p, dstB.Data, src.Data)
		coiT = p.Now() - start
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if dmaT >= coiT {
		t.Fatalf("raw DMA (%v) not faster than COI (%v)", dmaT, coiT)
	}
}

func TestOffloadLaunchAndInit(t *testing.T) {
	eng, bus, _ := setup()
	plat := perfmodel.Default()
	var launch1, launch56, init sim.Duration
	eng.Spawn("m", func(p *sim.Proc) {
		s := p.Now()
		bus.OffloadLaunch(p, 1)
		launch1 = p.Now() - s
		s = p.Now()
		bus.OffloadLaunch(p, 56)
		launch56 = p.Now() - s
		s = p.Now()
		bus.OffloadInit(p)
		init = p.Now() - s
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if launch56 <= launch1 {
		t.Fatal("launch cost must grow with threads")
	}
	if init != plat.OffloadInitCost {
		t.Fatalf("init cost %v, want %v", init, plat.OffloadInitCost)
	}
}

// TestTransferRecordReuse runs copies from two processes on one bus, in
// flight at the same time, through the bus's pool of transfer records:
// an aborted copy's record goes back and is taken by the next copy, which
// must see neither the old verdict nor the old span, while the registry
// and the causal stream record every copy at its landing.
func TestTransferRecordReuse(t *testing.T) {
	eng, bus, n := setup()
	plat := perfmodel.Default()
	reg, rec := metrics.New(), causal.New()
	bus.Metrics, bus.Causal = reg, rec
	bus.Faults = faults.New(eng, &faults.Plan{DMAAbort: 1})
	const size = 64 << 10
	srcA, srcB := n.Mic.Alloc(size), n.Mic.Alloc(size)
	dstA, dstB := n.Host.Alloc(size), n.Host.Alloc(size)
	for i := range srcA.Data {
		srcA.Data[i], srcB.Data[i] = byte(i*7+1), byte(i*13+5)
	}
	var aborted, landedB, reused sim.Time
	eng.Spawn("a", func(p *sim.Proc) {
		var abort *DMAAbortError
		if err := bus.DMACopy(p, dstA.Data, srcA.Data); !errors.As(err, &abort) || abort.Bytes != size {
			t.Errorf("copy under dma-abort=1 returned %v, want a *DMAAbortError of %d bytes", err, size)
		}
		aborted = p.Now()
		if !bytes.Equal(dstA.Data, make([]byte, size)) {
			t.Error("an aborted copy wrote its destination")
		}
		// b's copy is still on the wire, so the record on top of the
		// pool is the one a's copy just returned.
		if len(bus.free) != 1 {
			t.Fatalf("%d records pooled while b's copy is in flight, want 1", len(bus.free))
		}
		x := bus.free[0]
		bus.Metrics = nil
		if err := bus.DMACopy(p, dstA.Data, srcA.Data); err != nil {
			t.Errorf("the copy after an abort returned %v", err)
		}
		reused = p.Now()
		if !bytes.Equal(dstA.Data, srcA.Data) {
			t.Error("the copy after an abort did not land its bytes")
		}
		if len(bus.free) != 2 || bus.free[1] != x {
			t.Error("the copy after an abort did not reuse the aborted copy's record")
		}
	})
	eng.Spawn("b", func(p *sim.Proc) {
		p.Sleep(1)
		bus.Faults = nil
		if err := bus.DMACopy(p, dstB.Data, srcB.Data); err != nil {
			t.Errorf("b's copy returned %v", err)
		}
		landedB = p.Now()
		if !bytes.Equal(dstB.Data, srcB.Data) {
			t.Error("b's copy did not land its bytes")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	occ := sim.Duration(float64(size) / plat.DMAEngineBandwidth * float64(sim.Second))
	if want := plat.DMAEngineLatency + occ; aborted != want {
		t.Fatalf("aborted copy landed at %v, want %v", aborted, want)
	}
	if landedB != aborted+occ || reused != landedB+occ {
		t.Fatalf("copies landed at %v, %v, %v: want one occupancy (%v) apart on the one engine", aborted, landedB, reused, occ)
	}
	// The registry saw the two copies started while it was installed.
	for name, want := range map[string]int64{"dma.copies": 2, "dma.bytes": 2 * size, "dma.busy-ns": 2 * int64(occ)} {
		if got := reg.Counter("pcie/node0", name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	spans := reg.Spans()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	for i, want := range []struct{ start, end sim.Time }{{0, aborted}, {1, landedB}} {
		if sp := spans[i]; sp.Name != "dma-copy" || !sp.Ended || sp.Start != want.start || sp.Finish != want.end {
			t.Errorf("span %d: %s %v–%v ended=%v, want dma-copy %v–%v", i, sp.Name, sp.Start, sp.Finish, sp.Ended, want.start, want.end)
		}
	}
	// A pooled record holds nothing of its last copy: no verdict, no
	// span, no slices.
	for _, x := range bus.free {
		if x.aborted || x.span != nil || x.dst != nil || x.src != nil {
			t.Errorf("a pooled record still holds its last copy: aborted=%v span=%v", x.aborted, x.span)
		}
	}
	evs := rec.Events()
	if len(evs) != 3 {
		t.Fatalf("%d causal events, want one EvDMADone per copy", len(evs))
	}
	for i, want := range []struct{ t, start sim.Time }{{aborted, 0}, {landedB, 1}, {reused, aborted}} {
		e := evs[i]
		if e.Kind != causal.EvDMADone || e.T != want.t || e.Aux != uint64(want.t-want.start) || e.Bytes != size || e.Rank != -1 || e.Peer != 0 {
			t.Errorf("event %d: %+v, want EvDMADone at %v lasting %v", i, e, want.t, want.t-want.start)
		}
	}
}
