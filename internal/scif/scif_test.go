package scif

import (
	"runtime"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/sim"
)

func TestMessageCostsOneCrossing(t *testing.T) {
	eng := sim.NewEngine()
	plat := perfmodel.Default()
	pair := NewPair(eng, plat)
	var arrived sim.Time
	eng.Spawn("host", func(p *sim.Proc) {
		msg := pair.Host.Recv(p)
		arrived = p.Now()
		if msg.Kind != 3 || msg.Payload.(string) != "hello" {
			t.Errorf("message %+v", msg)
		}
	})
	eng.Spawn("mic", func(p *sim.Proc) {
		pair.Mic.Send(3, "hello")
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if arrived != plat.SCIFMsgLatency {
		t.Fatalf("arrived at %v, want %v", arrived, plat.SCIFMsgLatency)
	}
}

func TestCallRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	plat := perfmodel.Default()
	pair := NewPair(eng, plat)
	work := 10 * sim.Microsecond
	eng.Spawn("daemon", func(p *sim.Proc) {
		req := pair.Host.Recv(p)
		p.Sleep(work)
		pair.Host.Send(req.Kind, "done")
	})
	var rtt sim.Duration
	eng.Spawn("client", func(p *sim.Proc) {
		start := p.Now()
		resp := pair.Mic.Call(p, 7, nil)
		rtt = p.Now() - start
		if resp.Payload.(string) != "done" {
			t.Errorf("response %+v", resp)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := 2*plat.SCIFMsgLatency + work
	if rtt != want {
		t.Fatalf("round trip %v, want %v", rtt, want)
	}
}

func TestOrderingPreserved(t *testing.T) {
	eng := sim.NewEngine()
	pair := NewPair(eng, perfmodel.Default())
	var got []int
	eng.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			got = append(got, pair.Host.Recv(p).Payload.(int))
		}
	})
	eng.Spawn("mic", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			pair.Mic.Send(1, i)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order %v", got)
		}
	}
}

func TestSeqNumbersMonotone(t *testing.T) {
	eng := sim.NewEngine()
	pair := NewPair(eng, perfmodel.Default())
	received := 0
	eng.Spawn("host", func(p *sim.Proc) {
		var last uint64
		for i := 0; i < 5; i++ {
			m := pair.Host.Recv(p)
			if m.Seq <= last {
				t.Errorf("seq %d after %d", m.Seq, last)
			}
			if m.Payload != i {
				t.Errorf("message %d carries %v", i, m.Payload)
			}
			last = m.Seq
			received++
		}
	})
	eng.Spawn("mic", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			pair.Mic.Send(1, i)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if received != 5 {
		t.Fatalf("host received %d messages, want 5", received)
	}
}

func TestBidirectionalSimultaneous(t *testing.T) {
	eng := sim.NewEngine()
	pair := NewPair(eng, perfmodel.Default())
	eng.Spawn("host", func(p *sim.Proc) {
		pair.Host.Send(1, "from-host")
		if got := pair.Host.Recv(p).Payload.(string); got != "from-mic" {
			t.Errorf("host got %q", got)
		}
	})
	eng.Spawn("mic", func(p *sim.Proc) {
		pair.Mic.Send(1, "from-mic")
		if got := pair.Mic.Recv(p).Payload.(string); got != "from-host" {
			t.Errorf("mic got %q", got)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// A message sits in the peer's inbox from the moment it is sent, but a
// Recv must not see it before it has crossed: one posted mid-flight
// returns at send time plus the latency. Three sends in one instant
// land one latency later, in the order they were sent.
func TestRecvWaitsForLanding(t *testing.T) {
	eng := sim.NewEngine()
	plat := perfmodel.Default()
	lat := plat.SCIFMsgLatency
	pair := NewPair(eng, plat)
	const sent = sim.Microsecond
	burst := sent + 2*lat
	eng.Spawn("host", func(p *sim.Proc) {
		p.Sleep(sent + lat/2)
		if m := pair.Host.Recv(p); m.Payload != "first" || p.Now() != sent+lat {
			t.Errorf("mid-flight Recv got %v at %v, want \"first\" at %v", m.Payload, p.Now(), sent+lat)
		}
		for i := 0; i < 3; i++ {
			if m := pair.Host.Recv(p); m.Payload != i || p.Now() != burst+lat {
				t.Errorf("Recv %d got %v at %v, want %d at %v", i, m.Payload, p.Now(), i, burst+lat)
			}
		}
	})
	eng.Spawn("mic", func(p *sim.Proc) {
		p.Sleep(sent)
		pair.Mic.Send(1, "first")
		p.Sleep(burst - sent)
		for i := 0; i < 3; i++ {
			pair.Mic.Send(1, i)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// A delegated verb is one Call round trip; once the inboxes have grown
// to the depth they keep, a round trip allocates nothing: the landing
// callback is bound once per endpoint, and the message is queued by
// value.
func TestCallAllocatesNothing(t *testing.T) {
	// As testing.AllocsPerRun does: with one P the runtime's per-P
	// caches stay put and the count repeats exactly.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const warm, calls = 100, 1000
	eng := sim.NewEngine()
	pair := NewPair(eng, perfmodel.Default())
	eng.Spawn("echo", func(p *sim.Proc) {
		p.MarkDaemon()
		for {
			m := pair.Host.Recv(p)
			pair.Host.Send(m.Kind, m.Payload)
		}
	})
	var m0, m1 runtime.MemStats
	eng.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < warm; i++ {
			pair.Mic.Call(p, 1, nil)
		}
		runtime.ReadMemStats(&m0)
		for i := 0; i < calls; i++ {
			pair.Mic.Call(p, 1, nil)
		}
		runtime.ReadMemStats(&m1)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n := m1.Mallocs - m0.Mallocs; n != 0 {
		t.Fatalf("%d heap allocations over %d round trips (%.2f each), want none", n, calls, float64(n)/calls)
	}
}
