package core

// First-contact failure: under lazy connect a pair's endpoints are
// built inside the first Isend/Irecv that names the peer, and that can
// fail (the DCFA CMD channel under a fault plan). The failed call must
// not leave a lifecycle span open, and a collective that has already
// posted to other peers must complete those requests before returning
// the error.

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/ib"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// qpFailVerbs fails the k-th CreateQP of the whole world and counts the
// world's registrations and deregistrations.
type qpFailVerbs struct {
	Verbs
	calls *int
	k     int
	err   error

	regs, deregs *int
}

func (v qpFailVerbs) RegMR(p *sim.Proc, pd *ib.PD, dom *machine.Domain, addr uint64, n int) (*ib.MR, error) {
	*v.regs++
	return v.Verbs.RegMR(p, pd, dom, addr, n)
}

func (v qpFailVerbs) DeregMR(p *sim.Proc, mr *ib.MR) error {
	*v.deregs++
	return v.Verbs.DeregMR(p, mr)
}

func (v qpFailVerbs) CreateQP(p *sim.Proc, pd *ib.PD, scq, rcq *ib.CQ) (*ib.QP, error) {
	if *v.calls++; *v.calls == v.k {
		return nil, v.err
	}
	return v.Verbs.CreateQP(p, pd, scq, rcq)
}

func TestFirstContactFailureLeaksNothing(t *testing.T) {
	const (
		big   = 64 << 10 // rendezvous: the posted requests pin cache entries
		small = 64
	)
	// Rank 0 reaches its peers in rank order while they are still
	// asleep, so CreateQP calls come in pairs (rank 0's half, the
	// peer's half) and k names rank 0's own half toward the failing
	// peer. That peer sits the run out: its endpoint never existed. (The
	// last row fails the *peer's* half instead, and nobody sits out.)
	cases := []struct {
		name     string
		k        int
		failPeer int
		body     func(r *Rank, p *sim.Proc) error
	}{
		{"gather", 5, 3, func(r *Rank, p *sim.Proc) error {
			counts := []int{small, big, big, small}
			s, dst := r.Mem(counts[r.ID()]), r.Mem(small+big+big+small)
			return r.Gatherv(p, 0, Whole(s), Whole(dst), counts)
		}},
		{"scatter", 5, 3, func(r *Rank, p *sim.Proc) error {
			counts := []int{small, big, big, small}
			src, recv := r.Mem(small+big+big+small), r.Mem(counts[r.ID()])
			return r.Scatterv(p, 0, Whole(src), Whole(recv), counts)
		}},
		{"isend", 3, 2, func(r *Rank, p *sim.Proc) error {
			buf := r.Mem(big)
			switch r.ID() {
			case 0:
				q, err := r.Irecv(p, 1, 7, Whole(buf))
				if err != nil {
					return err
				}
				_, err = r.Isend(p, 2, 7, Whole(r.Mem(big)))
				if _, werr := r.Wait(p, q); werr != nil || !q.Done() {
					return errors.Join(errors.New("the posted receive did not complete"), werr)
				}
				return err
			case 1:
				return r.Send(p, 0, 7, Whole(buf))
			}
			return nil
		}},
		{"isend-peer-half", 2, -1, func(r *Rank, p *sim.Proc) error {
			// Rank 0's own half toward rank 1 is built and registered
			// when rank 1's CreateQP fails: the attempt must take its
			// registrations back and publish nothing, so that the second
			// contact builds the pair afresh and the message arrives.
			buf := r.Mem(small)
			switch r.ID() {
			case 0:
				for i := range buf.Data {
					buf.Data[i] = byte(i + 1)
				}
				_, first := r.Isend(p, 1, 7, Whole(buf))
				v := r.v.(qpFailVerbs)
				regs, deregs := *v.regs, *v.deregs
				if err := r.Send(p, 1, 7, Whole(buf)); err != nil {
					return errors.Join(errors.New("second contact"), err)
				}
				if regs == 0 || regs != deregs {
					return fmt.Errorf("failed contact: %d RegMR, %d DeregMR", regs, deregs)
				}
				return first
			case 1:
				if _, err := r.Recv(p, 0, 7, Whole(buf)); err != nil {
					return err
				}
				for i, b := range buf.Data {
					if b != byte(i+1) {
						return fmt.Errorf("payload byte %d is %d", i, b)
					}
				}
			}
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			injected := errors.New("injected CreateQP failure")
			eng, plat := sim.NewEngine(), perfmodel.Default()
			fab := ib.NewFabric(eng, plat)
			calls, regs, deregs := 0, 0, 0
			envs := make([]Env, 4)
			for i := range envs {
				node := machine.NewNode(i)
				host := HostVerbs{Ctx: fab.AttachHCA(node).Open(machine.HostMem), Node: node}
				envs[i] = Env{V: qpFailVerbs{Verbs: host, calls: &calls, k: tc.k, err: injected, regs: &regs, deregs: &deregs}, Node: node}
			}
			cfg := ConfigFromPlatform(plat)
			cfg.Offload = false
			cfg.ConnectMode = "lazy"
			cfg.Metrics = metrics.New()
			w := NewWorld(eng, plat, cfg, envs)
			err := w.Run(func(r *Rank) error {
				p := r.Proc()
				if r.ID() == tc.failPeer {
					return nil
				}
				if r.ID() != 0 {
					p.Sleep(10 * sim.Millisecond)
				}
				return tc.body(r, p)
			})
			if !errors.Is(err, injected) {
				t.Fatalf("Run returned %v, want the injected error", err)
			}
			if calls < tc.k {
				t.Fatalf("only %d CreateQP calls: the injection at %d never fired", calls, tc.k)
			}
			if open := cfg.Metrics.OpenSpans(); open != 0 {
				t.Errorf("%d spans left open", open)
			}
			for i := 0; i < w.Size(); i++ {
				r := w.Rank(i)
				if n := r.mrCache.Pinned(); n != 0 {
					t.Errorf("rank %d still pins %d cache entries", i, n)
				}
				for _, j := range r.active {
					if r.peers[j].qp.State != ib.QPConnected {
						t.Errorf("rank %d lists unwired peer %d as active", i, j)
					}
				}
			}
		})
	}
}
