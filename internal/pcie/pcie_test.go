package pcie

import (
	"bytes"
	"testing"

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
		ev := bus.StartDMA(dst.Data, src.Data)
		if dst.Data[0] == src.Data[0] && dst.Data[100] == src.Data[100] {
			t.Error("bytes visible before virtual completion")
		}
		if err := ev.Wait(p); err != nil {
			t.Error(err)
		}
		elapsed = p.Now()
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
	_, bus, n := setup()
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	bus.StartDMA(n.Host.Alloc(10).Data, n.Mic.Alloc(20).Data)
}

func TestDMASerializesOnEngine(t *testing.T) {
	eng, bus, n := setup()
	src := n.Mic.Alloc(1 << 20)
	d1 := n.Host.Alloc(1 << 20)
	d2 := n.Host.Alloc(1 << 20)
	var t1, t2 sim.Time
	eng.Spawn("a", func(p *sim.Proc) {
		ev1 := bus.StartDMA(d1.Data, src.Data)
		ev2 := bus.StartDMA(d2.Data, src.Data)
		if err := ev1.Wait(p); err != nil {
			t.Error(err)
		}
		t1 = p.Now()
		if err := ev2.Wait(p); err != nil {
			t.Error(err)
		}
		t2 = p.Now()
	})
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
