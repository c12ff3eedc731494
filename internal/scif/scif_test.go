package scif

import (
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
