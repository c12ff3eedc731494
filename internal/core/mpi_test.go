package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/causal"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// pair builds a 2-node DCFA world (offload on unless stated otherwise).
func pair(offload bool) (*cluster.Cluster, *core.World) {
	c := cluster.New(perfmodel.Default(), 2)
	return c, c.DCFAWorld(2, offload)
}

func fill(b []byte, seed byte) {
	for i := range b {
		b[i] = byte(int(seed) + i*7)
	}
}

func TestEagerPingPong(t *testing.T) {
	_, w := pair(true)
	const n = 1024
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		buf := r.Mem(n)
		if r.ID() == 0 {
			fill(buf.Data, 1)
			if err := r.Send(p, 1, 42, core.Whole(buf)); err != nil {
				return err
			}
			echo := r.Mem(n)
			if _, err := r.Recv(p, 1, 43, core.Whole(echo)); err != nil {
				return err
			}
			if !bytes.Equal(echo.Data, buf.Data) {
				return errors.New("echo mismatch")
			}
			return nil
		}
		st, err := r.Recv(p, 0, 42, core.Whole(buf))
		if err != nil {
			return err
		}
		if st.Source != 0 || st.Tag != 42 || st.Len != n {
			return fmt.Errorf("status %+v", st)
		}
		return r.Send(p, 0, 43, core.Whole(buf))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFourByteRTTNear15us(t *testing.T) {
	_, w := pair(true)
	var rtt sim.Duration
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		buf := r.Mem(4)
		if r.ID() == 0 {
			if err := r.Barrier(p); err != nil {
				return err
			}
			start := p.Now()
			const iters = 10
			for i := 0; i < iters; i++ {
				if err := r.Send(p, 1, 0, core.Whole(buf)); err != nil {
					return err
				}
				if _, err := r.Recv(p, 1, 0, core.Whole(buf)); err != nil {
					return err
				}
			}
			rtt = (p.Now() - start) / iters
			return nil
		}
		if err := r.Barrier(p); err != nil {
			return err
		}
		for i := 0; i < 10; i++ {
			if _, err := r.Recv(p, 0, 0, core.Whole(buf)); err != nil {
				return err
			}
			if err := r.Send(p, 0, 0, core.Whole(buf)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The paper: DCFA-MPI spends ~15 µs for a 4-byte round trip.
	if rtt < 12*sim.Microsecond || rtt > 19*sim.Microsecond {
		t.Fatalf("4-byte RTT %v, want ≈15µs", rtt)
	}
}

// rendezvousRoundTrip exercises a single large transfer with the given
// relative timing of send and receive.
func rendezvousRoundTrip(t *testing.T, n int, senderDelay, receiverDelay sim.Duration, offload bool) {
	t.Helper()
	_, w := pair(offload)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		buf := r.Mem(n)
		if r.ID() == 0 {
			fill(buf.Data, 9)
			if err := r.Barrier(p); err != nil {
				return err
			}
			p.Sleep(senderDelay)
			return r.Send(p, 1, 7, core.Whole(buf))
		}
		if err := r.Barrier(p); err != nil {
			return err
		}
		p.Sleep(receiverDelay)
		st, err := r.Recv(p, 0, 7, core.Whole(buf))
		if err != nil {
			return err
		}
		if st.Len != n {
			return fmt.Errorf("received %d bytes, want %d", st.Len, n)
		}
		want := make([]byte, n)
		fill(want, 9)
		if !bytes.Equal(buf.Data, want) {
			return errors.New("payload corrupted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSenderFirstRendezvous(t *testing.T) {
	// Sender way ahead: RTS waits at the receiver, which RDMA-reads.
	rendezvousRoundTrip(t, 256<<10, 0, 500*sim.Microsecond, false)
}

func TestReceiverFirstRendezvous(t *testing.T) {
	// Receiver way ahead: RTR waits at the sender, which RDMA-writes.
	rendezvousRoundTrip(t, 256<<10, 500*sim.Microsecond, 0, false)
}

func TestSimultaneousRendezvous(t *testing.T) {
	// Both sides post at once: RTS and RTR cross on the wire; the
	// sender must disregard the RTR and the receiver must read.
	rendezvousRoundTrip(t, 256<<10, 0, 0, false)
}

func TestRendezvousWithOffloadAllTimings(t *testing.T) {
	for _, d := range []struct {
		name   string
		sd, rd sim.Duration
	}{
		{"sender-first", 0, 300 * sim.Microsecond},
		{"receiver-first", 300 * sim.Microsecond, 0},
		{"simultaneous", 0, 0},
	} {
		t.Run(d.name, func(t *testing.T) {
			rendezvousRoundTrip(t, 1<<20, d.sd, d.rd, true)
		})
	}
}

func TestEagerToRendezvousReceiverMisprediction(t *testing.T) {
	// Receiver posts a big buffer (predicts rendezvous, sends RTR);
	// sender sends a small eager message. The receiver must complete
	// from the eager packet; the sender must drop the stale RTR.
	_, w := pair(true)
	const small = 512
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		if r.ID() == 0 {
			buf := r.Mem(small)
			fill(buf.Data, 3)
			if err := r.Barrier(p); err != nil {
				return err
			}
			p.Sleep(200 * sim.Microsecond) // let the RTR arrive first
			if err := r.Send(p, 1, 5, core.Whole(buf)); err != nil {
				return err
			}
			// Drive progress long enough to consume the stale RTR.
			return r.Barrier(p)
		}
		big := r.Mem(64 << 10)
		if err := r.Barrier(p); err != nil {
			return err
		}
		st, err := r.Recv(p, 0, 5, core.Whole(big))
		if err != nil {
			return err
		}
		if st.Len != small {
			return fmt.Errorf("len %d, want %d", st.Len, small)
		}
		want := make([]byte, small)
		fill(want, 3)
		if !bytes.Equal(big.Data[:small], want) {
			return errors.New("payload corrupted")
		}
		return r.Barrier(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRendezvousToEagerReceiverErrors(t *testing.T) {
	// Sender rendezvous (large), receiver eager (small buffer): the
	// paper says "the receiver will issue an MPI error".
	_, w := pair(true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		if r.ID() == 0 {
			big := r.Mem(64 << 10)
			if err := r.Barrier(p); err != nil {
				return err
			}
			err := r.Send(p, 1, 5, core.Whole(big))
			if !errors.Is(err, core.ErrTruncate) {
				return fmt.Errorf("sender got %v, want ErrTruncate", err)
			}
			return nil
		}
		small := r.Mem(512)
		if err := r.Barrier(p); err != nil {
			return err
		}
		_, err := r.Recv(p, 0, 5, core.Whole(small))
		if !errors.Is(err, core.ErrTruncate) {
			return fmt.Errorf("receiver got %v, want ErrTruncate", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEagerTruncationError(t *testing.T) {
	_, w := pair(true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		if r.ID() == 0 {
			buf := r.Mem(1024)
			if err := r.Barrier(p); err != nil {
				return err
			}
			return r.Send(p, 1, 5, core.Whole(buf))
		}
		small := r.Mem(100)
		if err := r.Barrier(p); err != nil {
			return err
		}
		_, err := r.Recv(p, 0, 5, core.Whole(small))
		if !errors.Is(err, core.ErrTruncate) {
			return fmt.Errorf("got %v, want ErrTruncate", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageOrderingSameTagPair(t *testing.T) {
	// Sequence ids pair the k-th send with the k-th receive.
	_, w := pair(true)
	const count = 50
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		if r.ID() == 0 {
			for i := 0; i < count; i++ {
				buf := r.Mem(8)
				buf.Data[0] = byte(i)
				if err := r.Send(p, 1, 1, core.Whole(buf)); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < count; i++ {
			buf := r.Mem(8)
			if _, err := r.Recv(p, 0, 1, core.Whole(buf)); err != nil {
				return err
			}
			if buf.Data[0] != byte(i) {
				return fmt.Errorf("message %d out of order: got %d", i, buf.Data[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMismatchAtSameSeqErrors(t *testing.T) {
	_, w := pair(true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		buf := r.Mem(8)
		if r.ID() == 0 {
			if err := r.Barrier(p); err != nil {
				return err
			}
			return r.Send(p, 1, 1, core.Whole(buf))
		}
		if err := r.Barrier(p); err != nil {
			return err
		}
		_, err := r.Recv(p, 0, 2, core.Whole(buf)) // wrong tag, same seq
		if !errors.Is(err, core.ErrTagMismatch) {
			return fmt.Errorf("got %v, want ErrTagMismatch", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnyTagMatches(t *testing.T) {
	_, w := pair(true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		buf := r.Mem(8)
		if r.ID() == 0 {
			return r.Send(p, 1, 1234, core.Whole(buf))
		}
		st, err := r.Recv(p, 0, core.AnyTag, core.Whole(buf))
		if err != nil {
			return err
		}
		if st.Tag != 1234 {
			return fmt.Errorf("status tag %d", st.Tag)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceBasic(t *testing.T) {
	c := cluster.New(perfmodel.Default(), 3)
	w := c.DCFAWorld(3, true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		if r.ID() == 0 {
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				buf := r.Mem(8)
				st, err := r.Recv(p, core.AnySource, 1, core.Whole(buf))
				if err != nil {
					return err
				}
				if int(buf.Data[0]) != st.Source {
					return fmt.Errorf("payload says %d, status says %d", buf.Data[0], st.Source)
				}
				seen[st.Source] = true
			}
			if !seen[1] || !seen[2] {
				return fmt.Errorf("sources seen: %v", seen)
			}
			return nil
		}
		buf := r.Mem(8)
		buf.Data[0] = byte(r.ID())
		return r.Send(p, 0, 1, core.Whole(buf))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceLockDefersLaterRecvs(t *testing.T) {
	// While an ANY_SOURCE receive is unmatched, later receives are
	// locked; once it matches, the deferred receives proceed correctly.
	_, w := pair(true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		if r.ID() == 0 {
			anyBuf := r.Mem(8)
			reqAny, err := r.Irecv(p, core.AnySource, 1, core.Whole(anyBuf))
			if err != nil {
				return err
			}
			specBuf := r.Mem(8)
			reqSpec, err := r.Irecv(p, 1, 2, core.Whole(specBuf))
			if err != nil {
				return err
			}
			if err := r.WaitAll(p, reqAny, reqSpec); err != nil {
				return err
			}
			if anyBuf.Data[0] != 0xA1 || specBuf.Data[0] != 0xA2 {
				return fmt.Errorf("payloads %#x %#x", anyBuf.Data[0], specBuf.Data[0])
			}
			return nil
		}
		p.Sleep(100 * sim.Microsecond)
		b1 := r.Mem(8)
		b1.Data[0] = 0xA1
		if err := r.Send(p, 0, 1, core.Whole(b1)); err != nil {
			return err
		}
		b2 := r.Mem(8)
		b2.Data[0] = 0xA2
		return r.Send(p, 0, 2, core.Whole(b2))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A wildcard receive completes naming the rank it matched, eager or
// rendezvous, posted before its message arrived or after: the causal
// graph then pairs the completion with its send, one message and no
// issue.
func TestAnySourceCompletionNamesItsSource(t *testing.T) {
	for _, tc := range []struct{ n, sendDelay, recvDelay int }{
		{64, 100, 0}, {64, 0, 100}, {64 << 10, 100, 0}, {64 << 10, 0, 100},
	} {
		rec := causal.New()
		c := cluster.New(perfmodel.Default(), 2)
		c.SetCausal(rec)
		err := c.DCFAWorld(2, true).Run(func(r *core.Rank) error {
			p := r.Proc()
			if r.ID() == 1 {
				p.Sleep(sim.Duration(tc.sendDelay) * sim.Microsecond)
				return r.Send(p, 0, 3, core.Whole(r.Mem(tc.n)))
			}
			p.Sleep(sim.Duration(tc.recvDelay) * sim.Microsecond)
			st, err := r.Recv(p, core.AnySource, 3, core.Whole(r.Mem(tc.n)))
			if err == nil && (st.Source != 1 || st.Len != tc.n) {
				err = fmt.Errorf("status %+v", st)
			}
			return err
		})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		g := causal.Build(rec.Events(), c.Eng.Now())
		if issues := g.Check(); len(issues) != 0 || len(g.Messages) != 1 {
			t.Errorf("%+v: %d messages, issues %v; want 1 and none", tc, len(g.Messages), issues)
		}
		for _, e := range rec.Events() {
			if e.Kind == causal.EvRecvDone && e.Peer != 1 {
				t.Errorf("%+v: recv-done names peer %d, want 1", tc, e.Peer)
			}
		}
	}
}

func TestNonblockingBatchBothDirections(t *testing.T) {
	_, w := pair(true)
	const count = 20
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		other := 1 - r.ID()
		var reqs []*core.Request
		recvBufs := make([][]byte, count)
		for i := 0; i < count; i++ {
			sb := r.Mem(64)
			fill(sb.Data, byte(r.ID()*100+i))
			sq, err := r.Isend(p, other, i, core.Whole(sb))
			if err != nil {
				return err
			}
			rb := r.Mem(64)
			recvBufs[i] = rb.Data
			rq, err := r.Irecv(p, other, i, core.Whole(rb))
			if err != nil {
				return err
			}
			reqs = append(reqs, sq, rq)
		}
		if err := r.WaitAll(p, reqs...); err != nil {
			return err
		}
		for i := 0; i < count; i++ {
			want := make([]byte, 64)
			fill(want, byte(other*100+i))
			if !bytes.Equal(recvBufs[i], want) {
				return fmt.Errorf("message %d corrupted", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCreditFlowControlManyEagerSends(t *testing.T) {
	// Far more eager messages than ring slots, receiver starts late:
	// flow control must queue and drain without loss or deadlock.
	plat := perfmodel.Default()
	c := cluster.New(plat, 2)
	w := c.DCFAWorld(2, true)
	count := w.Cfg.EagerSlots*3 + 7
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		if r.ID() == 0 {
			var reqs []*core.Request
			for i := 0; i < count; i++ {
				b := r.Mem(16)
				b.Data[0] = byte(i)
				b.Data[1] = byte(i >> 8)
				q, err := r.Isend(p, 1, 1, core.Whole(b))
				if err != nil {
					return err
				}
				reqs = append(reqs, q)
			}
			return r.WaitAll(p, reqs...)
		}
		p.Sleep(2 * sim.Millisecond) // arrive late
		for i := 0; i < count; i++ {
			b := r.Mem(16)
			if _, err := r.Recv(p, 0, 1, core.Whole(b)); err != nil {
				return err
			}
			if got := int(b.Data[0]) | int(b.Data[1])<<8; got != i {
				return fmt.Errorf("message %d out of order: %d", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfSendRecv(t *testing.T) {
	_, w := pair(true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		sb := r.Mem(100)
		fill(sb.Data, byte(r.ID()))
		if err := r.Send(p, r.ID(), 9, core.Whole(sb)); err != nil {
			return err
		}
		rb := r.Mem(100)
		st, err := r.Recv(p, r.ID(), 9, core.Whole(rb))
		if err != nil {
			return err
		}
		if st.Source != r.ID() || !bytes.Equal(rb.Data, sb.Data) {
			return errors.New("self message corrupted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvExchange(t *testing.T) {
	_, w := pair(true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		other := 1 - r.ID()
		sb := r.Mem(256)
		fill(sb.Data, byte(10+r.ID()))
		rb := r.Mem(256)
		if _, err := r.Sendrecv(p, other, 3, core.Whole(sb), other, 3, core.Whole(rb)); err != nil {
			return err
		}
		want := make([]byte, 256)
		fill(want, byte(10+other))
		if !bytes.Equal(rb.Data, want) {
			return errors.New("sendrecv payload mismatch")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestZeroByteMessages(t *testing.T) {
	_, w := pair(true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		if r.ID() == 0 {
			return r.Send(p, 1, 0, core.Slice{})
		}
		st, err := r.Recv(p, 0, 0, core.Slice{})
		if err != nil {
			return err
		}
		if st.Len != 0 {
			return fmt.Errorf("len %d", st.Len)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBadRankRejected(t *testing.T) {
	_, w := pair(true)
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		if _, err := r.Isend(p, 99, 0, core.Slice{}); !errors.Is(err, core.ErrBadRank) {
			return fmt.Errorf("Isend to rank 99: %v", err)
		}
		if _, err := r.Irecv(p, -7, 0, core.Slice{}); !errors.Is(err, core.ErrBadRank) {
			return fmt.Errorf("Irecv from rank -7: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMRCacheHitsOnReusedBuffers(t *testing.T) {
	_, w := pair(false) // no offload so rendezvous registers user buffers
	const n = 64 << 10
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		buf := r.Mem(n)
		other := 1 - r.ID()
		for i := 0; i < 5; i++ {
			if r.ID() == 0 {
				if err := r.Send(p, other, 1, core.Whole(buf)); err != nil {
					return err
				}
			} else {
				if _, err := r.Recv(p, other, 1, core.Whole(buf)); err != nil {
					return err
				}
			}
		}
		hits, misses := r.MRCacheStats()
		if hits == 0 {
			return fmt.Errorf("no MR cache hits after buffer reuse (hits=%d misses=%d)", hits, misses)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOffloadEngagesAboveThreshold(t *testing.T) {
	c, w := pair(true)
	_ = c
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		if r.ID() == 0 {
			big := r.Mem(64 << 10)
			if err := r.Send(p, 1, 1, core.Whole(big)); err != nil {
				return err
			}
			small := r.Mem(128)
			if err := r.Send(p, 1, 2, core.Whole(small)); err != nil {
				return err
			}
			if r.Stats.OffloadedSends != 1 {
				return fmt.Errorf("offloaded sends %d, want 1", r.Stats.OffloadedSends)
			}
			if r.Stats.EagerSends != 1 {
				return fmt.Errorf("eager sends %d, want 1", r.Stats.EagerSends)
			}
			return nil
		}
		b1 := r.Mem(64 << 10)
		if _, err := r.Recv(p, 0, 1, core.Whole(b1)); err != nil {
			return err
		}
		b2 := r.Mem(128)
		_, err := r.Recv(p, 0, 2, core.Whole(b2))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOffloadImprovesLargeMessageTime(t *testing.T) {
	measure := func(offload bool) sim.Duration {
		_, w := pair(offload)
		var elapsed sim.Duration
		err := w.Run(func(r *core.Rank) error {
			p := r.Proc()
			const n = 1 << 20
			buf := r.Mem(n)
			if r.ID() == 0 {
				if err := r.Barrier(p); err != nil {
					return err
				}
				start := p.Now()
				if err := r.Send(p, 1, 1, core.Whole(buf)); err != nil {
					return err
				}
				if _, err := r.Recv(p, 1, 2, core.Whole(buf)); err != nil {
					return err
				}
				elapsed = p.Now() - start
				return nil
			}
			if err := r.Barrier(p); err != nil {
				return err
			}
			if _, err := r.Recv(p, 0, 1, core.Whole(buf)); err != nil {
				return err
			}
			return r.Send(p, 0, 2, core.Whole(buf))
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	direct := measure(false)
	offloaded := measure(true)
	if offloaded >= direct {
		t.Fatalf("offload (%v) not faster than direct (%v) for 1 MiB", offloaded, direct)
	}
	if ratio := float64(direct) / float64(offloaded); ratio < 1.8 {
		t.Fatalf("offload speedup %.2f×, want ≥1.8×", ratio)
	}
}

func TestHostWorldFasterSmallRTT(t *testing.T) {
	measure := func(host bool) sim.Duration {
		c := cluster.New(perfmodel.Default(), 2)
		var w *core.World
		if host {
			w = c.World(cluster.ModeHost, 2)
		} else {
			w = c.DCFAWorld(2, true)
		}
		var rtt sim.Duration
		err := w.Run(func(r *core.Rank) error {
			p := r.Proc()
			buf := r.Mem(4)
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
	host := measure(true)
	phi := measure(false)
	if host >= phi {
		t.Fatalf("host RTT %v not below Phi RTT %v", host, phi)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() sim.Time {
		_, w := pair(true)
		var end sim.Time
		err := w.Run(func(r *core.Rank) error {
			p := r.Proc()
			buf := r.Mem(32 << 10)
			other := 1 - r.ID()
			for i := 0; i < 3; i++ {
				if r.ID() == 0 {
					if err := r.Send(p, other, 1, core.Whole(buf)); err != nil {
						return err
					}
					if _, err := r.Recv(p, other, 1, core.Whole(buf)); err != nil {
						return err
					}
				} else {
					if _, err := r.Recv(p, other, 1, core.Whole(buf)); err != nil {
						return err
					}
					if err := r.Send(p, other, 1, core.Whole(buf)); err != nil {
						return err
					}
				}
			}
			end = p.Now()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("nondeterministic: %v vs %v", got, first)
		}
	}
}

// Property: messages of arbitrary sizes and contents cross the eager /
// rendezvous / offload boundaries byte-exactly.
func TestQuickPayloadIntegrityAcrossProtocols(t *testing.T) {
	f := func(sizes []uint32, seed byte) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 6 {
			sizes = sizes[:6]
		}
		_, w := pair(true)
		ok := true
		err := w.Run(func(r *core.Rank) error {
			p := r.Proc()
			for i, s := range sizes {
				n := int(s%(256<<10)) + 1
				if r.ID() == 0 {
					b := r.Mem(n)
					fill(b.Data, seed+byte(i))
					if err := r.Send(p, 1, i, core.Whole(b)); err != nil {
						return err
					}
				} else {
					b := r.Mem(n)
					if _, err := r.Recv(p, 0, i, core.Whole(b)); err != nil {
						return err
					}
					want := make([]byte, n)
					fill(want, seed+byte(i))
					if !bytes.Equal(b.Data, want) {
						ok = false
					}
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
