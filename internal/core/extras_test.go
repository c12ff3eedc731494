package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/causal"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

func TestProbeSeesPendingMessage(t *testing.T) {
	_, w := pair(true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		if r.ID() == 0 {
			buf := r.Mem(256)
			return r.Send(p, 1, 7, core.Whole(buf))
		}
		st, err := r.Probe(p, 0, 7)
		if err != nil {
			return err
		}
		if st.Source != 0 || st.Tag != 7 || st.Len != 256 {
			return fmt.Errorf("probe status %+v", st)
		}
		// The message is still receivable after the probe.
		buf := r.Mem(256)
		_, err = r.Recv(p, 0, 7, core.Whole(buf))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProbeSeesSelfSend(t *testing.T) {
	// Loopback is a pair like any other: a message a rank sent to itself
	// waits in that pair's unexpected queue, where a probe naming the
	// rank's own id finds it. ANY_SOURCE means any *other* rank.
	_, w := pair(true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		if r.ID() != 0 {
			return nil
		}
		buf := r.Mem(100)
		if err := r.Send(p, 0, 5, core.Whole(buf)); err != nil {
			return err
		}
		if _, ok, err := r.Iprobe(p, core.AnySource, 5); err != nil || ok {
			return fmt.Errorf("any-source Iprobe saw the self-send: ok=%v err=%v", ok, err)
		}
		st, ok, err := r.Iprobe(p, 0, 5)
		if err != nil || !ok {
			return fmt.Errorf("self Iprobe ok=%v err=%v", ok, err)
		}
		if st.Source != 0 || st.Tag != 5 || st.Len != 100 {
			return fmt.Errorf("probe status %+v", st)
		}
		if st, err = r.Probe(p, 0, core.AnyTag); err != nil || st.Len != 100 {
			return fmt.Errorf("self Probe status %+v err=%v", st, err)
		}
		_, err = r.Recv(p, 0, 5, core.Whole(r.Mem(100)))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProbeReportsRendezvousSize(t *testing.T) {
	_, w := pair(true)
	const n = 128 << 10
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		if r.ID() == 0 {
			buf := r.Mem(n)
			return r.Send(p, 1, 1, core.Whole(buf))
		}
		st, err := r.Probe(p, 0, 1)
		if err != nil {
			return err
		}
		if st.Len != n {
			return fmt.Errorf("probe saw %d bytes, want %d (from the RTS)", st.Len, n)
		}
		buf := r.Mem(n)
		_, err = r.Recv(p, 0, 1, core.Whole(buf))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIprobeNonblockingAndAnySource(t *testing.T) {
	c := cluster.New(perfmodel.Default(), 3)
	w := c.DCFAWorld(3, true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		if r.ID() == 0 {
			if _, ok, err := r.Iprobe(p, 1, 0); err != nil || ok {
				return fmt.Errorf("early Iprobe ok=%v err=%v", ok, err)
			}
			if _, _, err := r.Iprobe(p, 99, 0); !errors.Is(err, core.ErrBadRank) {
				return fmt.Errorf("bad-rank Iprobe err=%v", err)
			}
			st, err := r.Probe(p, core.AnySource, 5)
			if err != nil {
				return err
			}
			if st.Source != 2 {
				return fmt.Errorf("any-source probe found rank %d", st.Source)
			}
			buf := r.Mem(16)
			_, err = r.Recv(p, st.Source, 5, core.Whole(buf))
			return err
		}
		if r.ID() == 2 {
			p.Sleep(100 * sim.Microsecond)
			buf := r.Mem(16)
			return r.Send(p, 0, 5, core.Whole(buf))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitany(t *testing.T) {
	_, w := pair(true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		if r.ID() == 0 {
			p.Sleep(200 * sim.Microsecond)
			buf := r.Mem(8)
			if err := r.Send(p, 1, 2, core.Whole(buf)); err != nil { // only tag 2 will arrive first
				return err
			}
			return r.Send(p, 1, 2, core.Whole(buf)) // q2's match
		}
		b1 := r.Mem(8)
		b2 := r.Mem(8)
		q1, err := r.Irecv(p, 0, 1, core.Whole(b1))
		if err != nil {
			return err
		}
		q2, err := r.Irecv(p, 0, 2, core.Whole(b2))
		if err == nil {
			// Posting tag 1 first consumed seq 0, so the tag-2 message
			// mismatches: expect the first request to error.
			i, _, werr := r.Waitany(p, q1, q2)
			if i != 0 || !errors.Is(werr, core.ErrTagMismatch) {
				return fmt.Errorf("waitany idx=%d err=%v", i, werr)
			}
			_, err = r.Wait(p, q2)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitanyEmptyErrors(t *testing.T) {
	_, w := pair(true)
	err := w.Run(func(r *core.Rank) error {
		if _, _, err := r.Waitany(r.Proc()); err == nil {
			return errors.New("empty Waitany succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTypedSendRecvVector(t *testing.T) {
	_, w := pair(true)
	// A 16x16 byte matrix column exchange.
	dt := core.Vector(16, 1, 16, 8) // 16 blocks of one float64, stride 16
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		mat := r.Mem(16 * 16 * 8)
		if r.ID() == 0 {
			vals := make([]float64, 16*16)
			for i := range vals {
				vals[i] = float64(i)
			}
			core.PutF64s(mat.Data, vals)
			// Send column 2.
			return r.SendTyped(p, 1, 0, core.Slice{Buf: mat, Off: 2 * 8, N: dt.Extent()}, dt)
		}
		if _, err := r.RecvTyped(p, 0, 0, core.Slice{Buf: mat, Off: 2 * 8, N: dt.Extent()}, dt); err != nil {
			return err
		}
		got := core.GetF64s(mat.Data, 16*16)
		for row := 0; row < 16; row++ {
			if got[row*16+2] != float64(row*16+2) {
				return fmt.Errorf("row %d col 2: %v", row, got[row*16+2])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTypedSendTooSmallSliceErrors(t *testing.T) {
	_, w := pair(true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		if r.ID() != 0 {
			return nil
		}
		buf := r.Mem(8)
		dt := core.Vector(4, 1, 4, 8)
		if err := r.SendTyped(p, 1, 0, core.Whole(buf), dt); err == nil {
			return errors.New("typed send with short slice succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOffloadedDatatypePackFasterForLargeVectors(t *testing.T) {
	// The paper's future-work offload: delegating the pack loop to the
	// host beats the slow Phi core above the threshold.
	measure := func(offloadPack bool) sim.Duration {
		plat := perfmodel.Default()
		c := cluster.New(plat, 2)
		cfg := core.ConfigFromPlatform(plat)
		cfg.OffloadDatatypePack = offloadPack
		w := core.NewWorld(c.Eng, plat, cfg, c.DCFAEnvs(2))
		var elapsed sim.Duration
		dt := core.Vector(4096, 8, 16, 8) // 256 KiB packed
		err := w.Run(func(r *core.Rank) error {
			p := r.Proc()
			mat := r.Mem(dt.Extent())
			if r.ID() == 0 {
				if err := r.Barrier(p); err != nil {
					return err
				}
				start := p.Now()
				if err := r.SendTyped(p, 1, 0, core.Whole(mat), dt); err != nil {
					return err
				}
				elapsed = p.Now() - start
				if offloadPack && r.Stats.OffloadedPacks != 1 {
					return fmt.Errorf("offloaded packs %d", r.Stats.OffloadedPacks)
				}
				return nil
			}
			if err := r.Barrier(p); err != nil {
				return err
			}
			_, err := r.RecvTyped(p, 0, 0, core.Whole(mat), dt)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	local := measure(false)
	offloaded := measure(true)
	if offloaded >= local {
		t.Fatalf("host-offloaded pack (%v) not faster than local (%v)", offloaded, local)
	}
}

// TestOffloadedPackIsACommand: a delegated pack is a DCFA command, so
// it shows in the same counters, round-trip histogram and causal
// events as every other delegated call.
func TestOffloadedPackIsACommand(t *testing.T) {
	plat := perfmodel.Default()
	c := cluster.New(plat, 2)
	reg, rec := metrics.New(), causal.New()
	c.SetMetrics(reg)
	c.SetCausal(rec)
	cfg := c.Config(cluster.ModeDCFA)
	cfg.OffloadDatatypePack = true
	cfg.OffloadPackMinSize = 1 << 10
	w := core.NewWorld(c.Eng, plat, cfg, c.DCFAEnvs(2))
	dt := core.Vector(256, 2, 4, 8) // 4 KiB packed: eager, so only the pack is a command
	var start, end sim.Time
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		mat := r.Mem(dt.Extent())
		if r.ID() == 0 {
			start = p.Now()
			err := r.SendTyped(p, 1, 0, core.Whole(mat), dt)
			end = p.Now()
			return err
		}
		_, err := r.RecvTyped(p, 0, 0, core.Whole(mat), dt)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if c, s := reg.Counter("dcfa/node0", "cmd.pack").Value(), reg.Counter("dcfad/node0", "served.pack").Value(); c != 1 || s != 1 {
		t.Fatalf("cmd.pack %d, served.pack %d, want 1 and 1", c, s)
	}
	n := dt.PackedSize()
	want := 2*plat.SCIFMsgLatency + sim.Duration(float64(n)/plat.HostPackRate*float64(sim.Second))
	if h := reg.Histogram("dcfa/node0", "cmd-rtt.pack"); h.Count() != 1 || h.Sum() != int64(want) {
		t.Fatalf("cmd-rtt.pack: %d observations summing to %d ns, want one of %d", h.Count(), h.Sum(), want)
	}
	// The bootstrap's last command completes the instant the rank's
	// function starts, so the window opens just after start.
	var done []causal.Event
	for _, e := range rec.Events() {
		if e.Kind == causal.EvCmdDone && e.Rank == 0 && e.T > start && e.T <= end {
			done = append(done, e)
		}
	}
	if len(done) != 1 || sim.Duration(done[0].Aux) != want {
		t.Fatalf("command completions on rank 0 during the send: %+v, want one of %v", done, want)
	}
}

// TestPackFallsBackWhenChannelGivesUp: a delegated pack the CMD channel
// rejects until its deadline ran no host work, so the rank packs
// locally and the receiver still gets the right bytes.
func TestPackFallsBackWhenChannelGivesUp(t *testing.T) {
	plat := perfmodel.Default()
	c := cluster.New(plat, 2)
	cfg := c.Config(cluster.ModeDCFA)
	cfg.OffloadDatatypePack = true
	cfg.OffloadPackMinSize = 1 << 10
	envs := c.DCFAEnvs(2)
	w := core.NewWorld(c.Eng, plat, cfg, envs)
	dt := core.Vector(256, 2, 4, 8) // 4 KiB packed: eager, so only the pack is a command
	plan := faults.NewPlan(1)
	plan.Cmd = 1
	var want []byte
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		if r.ID() == 0 {
			mat := r.Mem(dt.Extent())
			for i := range mat.Data {
				mat.Data[i] = byte(i * 7)
			}
			want = make([]byte, dt.PackedSize())
			dt.Pack(want, mat.Data)
			mic := envs[0].V.(core.DCFAVerbs)
			mic.Bus.Faults = faults.New(c.Eng, plan)
			err := r.SendTyped(p, 1, 0, core.Whole(mat), dt)
			mic.Bus.Faults = nil
			if err != nil {
				return err
			}
			if r.Stats.OffloadedPacks != 0 {
				return fmt.Errorf("offloaded packs %d after the channel gave up", r.Stats.OffloadedPacks)
			}
			return nil
		}
		got := r.Mem(dt.PackedSize())
		if _, err := r.Recv(p, 0, 0, core.Whole(got)); err != nil {
			return err
		}
		if !bytes.Equal(got.Data, want) {
			return fmt.Errorf("received bytes differ from the local pack")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSmallVectorsStayLocal(t *testing.T) {
	plat := perfmodel.Default()
	c := cluster.New(plat, 2)
	cfg := core.ConfigFromPlatform(plat)
	cfg.OffloadDatatypePack = true
	w := core.NewWorld(c.Eng, plat, cfg, c.DCFAEnvs(2))
	dt := core.Vector(8, 1, 2, 8) // 64 bytes packed: below threshold
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		mat := r.Mem(dt.Extent())
		if r.ID() == 0 {
			if err := r.SendTyped(p, 1, 0, core.Whole(mat), dt); err != nil {
				return err
			}
			if r.Stats.OffloadedPacks != 0 {
				return fmt.Errorf("small vector was offloaded")
			}
			return nil
		}
		_, err := r.RecvTyped(p, 0, 0, core.Whole(mat), dt)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
