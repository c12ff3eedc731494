package cluster_test

// The modes beside DCFA-MPI that the paper compares against (§III-B,
// §V): 'Intel MPI on Xeon Phi' through the host proxy, the symmetric
// host+co-processor placement, and 'Intel MPI on Xeon + offload', whose
// co-processor handle is the node's PCIe bus.

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// pingPongRTT measures one blocking round trip of n bytes on a world.
func pingPongRTT(t *testing.T, w *core.World, n int) sim.Duration {
	t.Helper()
	var rtt sim.Duration
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		buf := r.Mem(n)
		if err := r.Barrier(p); err != nil {
			return err
		}
		if r.ID() == 0 {
			start := p.Now()
			if err := r.Send(p, 1, 0, core.Whole(buf)); err != nil {
				return err
			}
			if _, err := r.Recv(p, 1, 0, core.Whole(buf)); err != nil {
				return err
			}
			rtt = p.Now() - start
			return nil
		}
		if _, err := r.Recv(p, 0, 0, core.Whole(buf)); err != nil {
			return err
		}
		return r.Send(p, 0, 0, core.Whole(buf))
	})
	if err != nil {
		t.Fatal(err)
	}
	return rtt
}

func TestPhiMPIFourByteRTTNear28us(t *testing.T) {
	c := cluster.New(perfmodel.Default(), 2)
	rtt := pingPongRTT(t, c.World(cluster.ModeIntelPhi, 2), 4)
	// The paper: 28 µs for the proxied mode vs 15 µs for DCFA-MPI.
	if rtt < 24*sim.Microsecond || rtt > 33*sim.Microsecond {
		t.Fatalf("proxied 4-byte RTT %v, want ≈28µs", rtt)
	}
}

func TestPhiMPIBandwidthCappedBelow1GBs(t *testing.T) {
	const n = 4 << 20
	c := cluster.New(perfmodel.Default(), 2)
	rtt := pingPongRTT(t, c.World(cluster.ModeIntelPhi, 2), n)
	bw := float64(n) / (float64(rtt) / 2 / 1e9) // bytes per second, one way
	if bw >= 1e9 {
		t.Fatalf("proxied bandwidth %.2f GB/s, paper says it cannot exceed 1 GB/s", bw/1e9)
	}
	if bw < 0.6e9 {
		t.Fatalf("proxied bandwidth %.2f GB/s implausibly low", bw/1e9)
	}
}

func TestDCFABeatsPhiMPIBy3xAtLargeSizes(t *testing.T) {
	const n = 4 << 20
	cp := cluster.New(perfmodel.Default(), 2)
	proxied := pingPongRTT(t, cp.World(cluster.ModeIntelPhi, 2), n)
	cd := cluster.New(perfmodel.Default(), 2)
	dcfaRTT := pingPongRTT(t, cd.DCFAWorld(2, true), n)
	ratio := float64(proxied) / float64(dcfaRTT)
	// Figure 9: "delivers a 3 times speed-up after the 1Mbytes message
	// size".
	if ratio < 2.5 || ratio > 3.6 {
		t.Fatalf("DCFA-MPI speedup over Intel-on-Phi %.2f×, want ≈3×", ratio)
	}
}

func TestPhiMPIPayloadIntegrity(t *testing.T) {
	c := cluster.New(perfmodel.Default(), 2)
	w := c.World(cluster.ModeIntelPhi, 2)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		const n = 128 << 10
		buf := r.Mem(n)
		if r.ID() == 0 {
			for i := range buf.Data {
				buf.Data[i] = byte(i * 13)
			}
			return r.Send(p, 1, 0, core.Whole(buf))
		}
		if _, err := r.Recv(p, 0, 0, core.Whole(buf)); err != nil {
			return err
		}
		want := make([]byte, n)
		for i := range want {
			want[i] = byte(i * 13)
		}
		if !bytes.Equal(buf.Data, want) {
			return errors.New("proxied payload corrupted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOnlyDCFAOffloads forces the offload send buffer and the delegated
// pack on in every provider: only DCFA's own verbs have them, so the
// proxied Intel path (which embeds the DCFA provider) and host verbs
// send and pack directly.
func TestOnlyDCFAOffloads(t *testing.T) {
	for _, m := range []cluster.Mode{cluster.ModeDCFA, cluster.ModeIntelPhi, cluster.ModeHost} {
		t.Run(m.String(), func(t *testing.T) {
			c := cluster.New(perfmodel.Default(), 2)
			cfg := c.Config(m)
			cfg.Offload, cfg.OffloadDatatypePack = true, true
			w := core.NewWorld(c.Eng, c.Plat, cfg, c.Envs(m, 2))
			dt := core.Vector(4096, 8, 16, 8) // 256 KiB packed
			var sends, packs int64
			err := w.Run(func(r *core.Rank) error {
				p := r.Proc()
				buf, mat := r.Mem(1<<20), r.Mem(dt.Extent())
				if r.ID() == 0 {
					if err := r.Send(p, 1, 0, core.Whole(buf)); err != nil {
						return err
					}
					sends = r.Stats.OffloadedSends
					if err := r.SendTyped(p, 1, 1, core.Whole(mat), dt); err != nil {
						return err
					}
					packs = r.Stats.OffloadedPacks
					return nil
				}
				if _, err := r.Recv(p, 0, 0, core.Whole(buf)); err != nil {
					return err
				}
				_, err := r.RecvTyped(p, 0, 1, core.Whole(mat), dt)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			want := int64(0)
			if m == cluster.ModeDCFA {
				want = 1
			}
			if sends != want || packs != want {
				t.Fatalf("offloaded sends %d, packs %d; want %d each", sends, packs, want)
			}
		})
	}
}

func TestOffloadDeviceTransferAndLaunchCosts(t *testing.T) {
	plat := perfmodel.Default()
	c := cluster.New(plat, 1)
	reg := metrics.New()
	c.SetMetrics(reg)
	dev := c.Buses[0]
	host := c.Nodes[0].Host.Alloc(4096)
	mic := c.Nodes[0].Mic.Alloc(4096)
	for i := range host.Data {
		host.Data[i] = byte(i)
	}
	var initT, xferT, launchT sim.Duration
	c.Eng.Spawn("host-rank", func(p *sim.Proc) {
		s := p.Now()
		dev.OffloadInit(p)
		dev.OffloadInit(p) // second init must be free
		initT = p.Now() - s
		s = p.Now()
		dev.OffloadTransfer(p, mic.Data, host.Data)
		xferT = p.Now() - s
		s = p.Now()
		dev.OffloadLaunch(p, 56)
		launchT = p.Now() - s
		dev.OffloadTransfer(p, host.Data, mic.Data)
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if initT != plat.OffloadInitCost {
		t.Fatalf("init %v, want %v (double init must be free)", initT, plat.OffloadInitCost)
	}
	if xferT < plat.OffloadTransferOverhead {
		t.Fatalf("transfer %v below fixed overhead", xferT)
	}
	if launchT != plat.OffloadLaunchCost(56) {
		t.Fatalf("launch %v, want %v", launchT, plat.OffloadLaunchCost(56))
	}
	if !bytes.Equal(mic.Data, host.Data) {
		t.Fatal("transfer did not move bytes")
	}
	if ops := reg.Counter("pcie/node0", "coi.ops").Value(); ops != 2 {
		t.Fatalf("stats transfers=%d", ops)
	}
}

func TestHostOffloadWorldRuns(t *testing.T) {
	c := cluster.New(perfmodel.Default(), 2)
	w := c.World(cluster.ModeHostOffload, 2)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		dev := c.Buses[c.NodeFor(r.ID())]
		dev.OffloadInit(p)
		// Host rank stages data to the card, "computes", pulls it back,
		// and exchanges over host MPI.
		hostBuf := r.Mem(8192)
		micBuf := dev.Node.Mic.Alloc(8192)
		for i := range hostBuf.Data {
			hostBuf.Data[i] = byte(r.ID() + 1)
		}
		dev.OffloadTransfer(p, micBuf.Data, hostBuf.Data)
		dev.OffloadLaunch(p, 4)
		dev.OffloadTransfer(p, hostBuf.Data, micBuf.Data)
		other := 1 - r.ID()
		rb := r.Mem(8192)
		if _, err := r.Sendrecv(p, other, 0, core.Whole(hostBuf), other, 0, core.Whole(rb)); err != nil {
			return err
		}
		if rb.Data[0] != byte(other+1) {
			return errors.New("host offload exchange corrupted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSymmetricModeMixedRanks(t *testing.T) {
	// 4 ranks on 2 nodes: host ranks 0,2 and co-processor ranks 1,3.
	c := cluster.New(perfmodel.Default(), 2)
	w := c.World(cluster.ModeSymmetric, 4)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		// Every pairing (host↔host, host↔phi, phi↔phi) exchanges.
		buf := r.Mem(4096)
		for i := range buf.Data {
			buf.Data[i] = byte(r.ID())
		}
		all := r.Mem(4 * 4096)
		if err := r.Allgather(p, core.Whole(buf), core.Whole(all)); err != nil {
			return err
		}
		for i := 0; i < 4; i++ {
			if all.Data[i*4096] != byte(i) {
				return errors.New("symmetric allgather corrupted")
			}
		}
		return r.Barrier(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSymmetricModeDomainPlacement(t *testing.T) {
	c := cluster.New(perfmodel.Default(), 2)
	w := c.World(cluster.ModeSymmetric, 4)
	err := w.Run(func(r *core.Rank) error {
		isHost := r.ID()%2 == 0
		gotHost := r.Domain().Kind.String() == "host"
		if isHost != gotHost {
			return errors.New("rank placed in wrong domain")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSymmetricHostPairFasterThanPhiPair(t *testing.T) {
	// Within symmetric mode, host↔host messaging must outrun phi↔phi.
	c := cluster.New(perfmodel.Default(), 2)
	w := c.World(cluster.ModeSymmetric, 4)
	var hostT, phiT sim.Duration
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		buf := r.Mem(4)
		if err := r.Barrier(p); err != nil {
			return err
		}
		// Host pair: 0↔2. Phi pair: 1↔3.
		var peer int
		switch r.ID() {
		case 0:
			peer = 2
		case 2:
			peer = 0
		case 1:
			peer = 3
		case 3:
			peer = 1
		}
		start := p.Now()
		if r.ID() < peer {
			if err := r.Send(p, peer, 0, core.Whole(buf)); err != nil {
				return err
			}
			if _, err := r.Recv(p, peer, 0, core.Whole(buf)); err != nil {
				return err
			}
			if r.ID() == 0 {
				hostT = p.Now() - start
			} else {
				phiT = p.Now() - start
			}
		} else {
			if _, err := r.Recv(p, peer, 0, core.Whole(buf)); err != nil {
				return err
			}
			if err := r.Send(p, peer, 0, core.Whole(buf)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if hostT >= phiT {
		t.Fatalf("host pair RTT %v not below phi pair RTT %v", hostT, phiT)
	}
}

func TestDoubleBufferOverlap(t *testing.T) {
	// Two async transfers through the COI path overlap with host work:
	// the paper's fourth optimization policy.
	plat := perfmodel.Default()
	c := cluster.New(plat, 1)
	dev := c.Buses[0]
	host := c.Nodes[0].Host.Alloc(1 << 20)
	mic := c.Nodes[0].Mic.Alloc(1 << 20)
	var elapsed sim.Duration
	// The transfer runs on its own process, so the host rank's work
	// overlaps it.
	landed := sim.NewSignal(c.Eng)
	done := false
	c.Eng.Spawn("coi", func(p *sim.Proc) {
		dev.OffloadTransfer(p, mic.Data, host.Data)
		done = true
		landed.Broadcast()
	})
	c.Eng.Spawn("host-rank", func(p *sim.Proc) {
		start := p.Now()
		p.Sleep(100 * sim.Microsecond) // overlapped host work
		if !done {
			landed.Wait(p)
		}
		elapsed = p.Now() - start
	})
	if err := c.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	serial := plat.OffloadTransferOverhead +
		sim.Duration(float64(1<<20)/plat.OffloadBandwidth*float64(sim.Second)) +
		100*sim.Microsecond
	if elapsed >= serial {
		t.Fatalf("no overlap: elapsed %v, serial would be %v", elapsed, serial)
	}
}
