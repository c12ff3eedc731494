package core_test

// First-contact failure: under lazy connect a pair's endpoints are
// built inside the first Isend/Irecv that names the peer, and that can
// fail (the DCFA CMD channel under a fault plan). The failed call must
// not leave a lifecycle span open, and an operation that has already
// posted to other peers must complete those requests before returning
// the error: otherwise the rank exits owing them, and World.Run reports
// a *core.LeakError.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ib"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/stencil"
)

// contactCounts is the world's CreateQP calls, registrations and
// deregistrations.
type contactCounts struct{ calls, regs, deregs int }

// qpFailVerbs fails the k-th CreateQP of the whole world and counts the
// world's registrations and deregistrations.
type qpFailVerbs struct {
	core.Verbs
	n   *contactCounts
	k   int
	err error
}

func (v qpFailVerbs) RegMR(p *sim.Proc, pd *ib.PD, dom *machine.Domain, addr uint64, n int) (*ib.MR, error) {
	v.n.regs++
	return v.Verbs.RegMR(p, pd, dom, addr, n)
}

func (v qpFailVerbs) DeregMR(p *sim.Proc, mr *ib.MR) error {
	v.n.deregs++
	return v.Verbs.DeregMR(p, mr)
}

func (v qpFailVerbs) CreateQP(p *sim.Proc, pd *ib.PD, scq, rcq *ib.CQ) (*ib.QP, error) {
	if v.n.calls++; v.n.calls == v.k {
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
	// isend-peer-half row fails the *peer's* half instead, and nobody
	// sits out.) In a collective whose members all talk to each other,
	// the members rank 0 abandoned wait for it for ever: those rows
	// strand them, and the run also ends in a deadlock.
	cases := []struct {
		name     string
		k        int
		failPeer int
		strands  bool
		tune     func(cfg *core.Config)
		body     func(r *core.Rank, p *sim.Proc, n *contactCounts) error
		// run, when set, drives the whole world instead of body.
		run func(w *core.World) error
	}{
		{name: "gather", k: 5, failPeer: 3, body: func(r *core.Rank, p *sim.Proc, _ *contactCounts) error {
			counts := []int{small, big, big, small}
			s, dst := r.Mem(counts[r.ID()]), r.Mem(small+big+big+small)
			return r.Gatherv(p, 0, core.Whole(s), core.Whole(dst), counts)
		}},
		{name: "scatter", k: 5, failPeer: 3, body: func(r *core.Rank, p *sim.Proc, _ *contactCounts) error {
			counts := []int{small, big, big, small}
			src, recv := r.Mem(small+big+big+small), r.Mem(counts[r.ID()])
			return r.Scatterv(p, 0, core.Whole(src), core.Whole(recv), counts)
		}},
		{name: "isend", k: 3, failPeer: 2, body: func(r *core.Rank, p *sim.Proc, _ *contactCounts) error {
			buf := r.Mem(big)
			switch r.ID() {
			case 0:
				q, err := r.Irecv(p, 1, 7, core.Whole(buf))
				if err != nil {
					return err
				}
				_, err = r.Isend(p, 2, 7, core.Whole(r.Mem(big)))
				if _, werr := r.Wait(p, q); werr != nil || !q.Done() {
					return errors.Join(errors.New("the posted receive did not complete"), werr)
				}
				return err
			case 1:
				return r.Send(p, 0, 7, core.Whole(buf))
			}
			return nil
		}},
		{name: "isend-peer-half", k: 2, failPeer: -1, body: func(r *core.Rank, p *sim.Proc, n *contactCounts) error {
			// Rank 0's own half toward rank 1 is built and registered
			// when rank 1's CreateQP fails: the attempt must take its
			// registrations back and publish nothing, so that the second
			// contact builds the pair afresh and the message arrives.
			// Counted from here: setup registered each rank's packet
			// slot, which stays.
			buf := r.Mem(small)
			switch r.ID() {
			case 0:
				for i := range buf.Data {
					buf.Data[i] = byte(i + 1)
				}
				regs0, deregs0 := n.regs, n.deregs
				_, first := r.Isend(p, 1, 7, core.Whole(buf))
				regs, deregs := n.regs-regs0, n.deregs-deregs0
				if err := r.Send(p, 1, 7, core.Whole(buf)); err != nil {
					return errors.Join(errors.New("second contact"), err)
				}
				if regs == 0 || regs != deregs {
					return fmt.Errorf("failed contact: %d RegMR, %d DeregMR", regs, deregs)
				}
				return first
			case 1:
				if _, err := r.Recv(p, 0, 7, core.Whole(buf)); err != nil {
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
		{name: "sendrecv", k: 3, failPeer: 3, body: func(r *core.Rank, p *sim.Proc, _ *contactCounts) error {
			// The Isend to rank 1 is posted when the Irecv from rank 3
			// fails: Sendrecv must wait for it before returning.
			switch r.ID() {
			case 0:
				_, err := r.Sendrecv(p, 1, 7, core.Whole(r.Mem(big)), 3, 7, core.Whole(r.Mem(big)))
				return err
			case 1:
				_, err := r.Recv(p, 0, 7, core.Whole(r.Mem(big)))
				return err
			}
			return nil
		}},
		{name: "allgather", k: 3, failPeer: 3, strands: true, body: func(r *core.Rank, p *sim.Proc, _ *contactCounts) error {
			// The ring's first step sends to rank 1 and receives from
			// rank 3: a Sendrecv whose receive fails.
			return r.Allgather(p, core.Whole(r.Mem(big)), core.Whole(r.Mem(4*big)))
		}},
		{name: "alltoall", k: 5, failPeer: 3, strands: true,
			tune: func(cfg *core.Config) { cfg.CollAlltoall = "linear" },
			body: func(r *core.Rank, p *sim.Proc, _ *contactCounts) error {
				return r.Alltoall(p, core.Whole(r.Mem(4*big)), core.Whole(r.Mem(4*big)), big)
			}},
		{name: "stencil-halo", k: 5, failPeer: -1, strands: true, run: func(w *core.World) error {
			// The stencil application on a caller-built world. In the
			// 1-D chain every rank first posts toward the neighbor above,
			// which reaches it first too, so the failed post is the
			// first of its exchange.
			_, err := stencil.RunWorld(w, stencil.Params{N: 64, Iters: 2, Procs: 4, Threads: 1, SkipCompute: true})
			return err
		}},
		{name: "stencil2d-halo", k: 5, failPeer: -1, strands: true, run: func(w *core.World) error {
			// On a 2×2 grid a rank's east-west pair is nobody's first
			// contact: the post that fails has its north-south exchange
			// posted before it.
			_, err := stencil.RunWorld(w, stencil.Params{N: 64, Iters: 2, Procs: 4, Cols: 2, Threads: 1, SkipCompute: true})
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			injected := errors.New("injected CreateQP failure")
			eng, plat := sim.NewEngine(), perfmodel.Default()
			fab := ib.NewFabric(eng, plat)
			var n contactCounts
			envs := make([]core.Env, 4)
			for i := range envs {
				node := machine.NewNode(i)
				host := core.HostVerbs{Ctx: fab.AttachHCA(node).Open(machine.HostMem)}
				envs[i] = core.Env{V: qpFailVerbs{Verbs: host, n: &n, k: tc.k, err: injected}}
			}
			cfg := core.ConfigFromPlatform(plat)
			cfg.Offload = false
			cfg.ConnectMode = "lazy"
			cfg.Metrics = metrics.New()
			if tc.tune != nil {
				tc.tune(&cfg)
			}
			w := core.NewWorld(eng, plat, cfg, envs)
			run := tc.run
			if run == nil {
				run = func(w *core.World) error {
					return w.Run(func(r *core.Rank) error {
						p := r.Proc()
						if r.ID() == tc.failPeer {
							return nil
						}
						if r.ID() != 0 {
							p.Sleep(10 * sim.Millisecond)
						}
						return tc.body(r, p, &n)
					})
				}
			}
			err := run(w)
			if !errors.Is(err, injected) {
				t.Fatalf("Run returned %v, want the injected error", err)
			}
			var leak *core.LeakError
			if errors.As(err, &leak) {
				t.Fatalf("Run reports a leak: %v", leak)
			}
			if n.calls < tc.k {
				t.Fatalf("only %d CreateQP calls: the injection at %d never fired", n.calls, tc.k)
			}
			var dl *sim.DeadlockError
			if errors.As(err, &dl) != tc.strands {
				t.Fatalf("Run returned %v: deadlock %v, want %v", err, !tc.strands, tc.strands)
			}
			if open := cfg.Metrics.OpenSpans(); open != 0 && !tc.strands {
				t.Errorf("%d spans left open", open)
			}
			for i := 0; i < w.Size(); i++ {
				if bad := w.Rank(i).UnwiredPeers(); len(bad) > 0 {
					t.Errorf("rank %d lists unwired peers %v as active", i, bad)
				}
			}
		})
	}
}

// TestFirstContactRegistersOneRegionPerHalf: a pair half registers its
// inbound ring and nothing else, since every packet a rank sends is
// assembled in its one packet slot. A lazy first contact therefore
// registers two regions, one per half, and the eager bootstrap of n
// ranks n·(n−1) rings plus n slots.
func TestFirstContactRegistersOneRegionPerHalf(t *testing.T) {
	const ranks = 4
	for _, mode := range []string{"lazy", "eager"} {
		t.Run(mode, func(t *testing.T) {
			eng, plat := sim.NewEngine(), perfmodel.Default()
			fab := ib.NewFabric(eng, plat)
			var n contactCounts
			envs := make([]core.Env, ranks)
			for i := range envs {
				host := core.HostVerbs{Ctx: fab.AttachHCA(machine.NewNode(i)).Open(machine.HostMem)}
				envs[i] = core.Env{V: qpFailVerbs{Verbs: host, n: &n}}
			}
			cfg := core.ConfigFromPlatform(plat)
			cfg.Offload = false
			cfg.ConnectMode = mode
			w := core.NewWorld(eng, plat, cfg, envs)
			bootstrap, contact := -1, -1
			err := w.Run(func(r *core.Rank) error {
				p := r.Proc()
				buf := core.Whole(r.Mem(64))
				switch r.ID() {
				case 0:
					bootstrap = n.regs
					q, err := r.Isend(p, 1, 7, buf)
					if err != nil {
						return err
					}
					contact = n.regs - bootstrap
					_, err = r.Wait(p, q)
					return err
				case 1:
					p.Sleep(10 * sim.Millisecond)
					_, err := r.Recv(p, 0, 7, buf)
					return err
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			wantBoot, wantContact := ranks, 2
			if mode == "eager" {
				wantBoot, wantContact = ranks*(ranks-1)+ranks, 0
			}
			if bootstrap != wantBoot || contact != wantContact {
				t.Errorf("bootstrap registered %d regions, first contact %d; want %d and %d", bootstrap, contact, wantBoot, wantContact)
			}
		})
	}
}

// regFailVerbs refuses the k-th RegMR of the rank it wraps.
type regFailVerbs struct {
	core.Verbs
	n   *int
	k   int
	err error
}

func (v regFailVerbs) RegMR(p *sim.Proc, pd *ib.PD, dom *machine.Domain, addr uint64, n int) (*ib.MR, error) {
	if *v.n++; *v.n == v.k {
		return nil, v.err
	}
	return v.Verbs.RegMR(p, pd, dom, addr, n)
}

// TestPeerSetupFailureIsTyped: in an eager 4-rank world one rank's setup
// is refused a registration. Refused its first, it publishes no pair
// half, so every other rank's connect finds no endpoint for it; refused
// its packet slot, after its three rings, the others wire against its
// halves and run. Either way Run returns the refusal, with neither a
// leak nor a deadlock: the failed rank's ledger counts the rings it
// published and no slot.
func TestPeerSetupFailureIsTyped(t *testing.T) {
	const ranks, failing = 4, 0
	for _, tc := range []struct {
		name     string
		k        int
		noPeerOf bool // every other rank's connect reports the failed peer
	}{{"first ring", 1, true}, {"packet slot", ranks, false}} {
		t.Run(tc.name, func(t *testing.T) {
			injected := errors.New("injected RegMR failure")
			eng, plat := sim.NewEngine(), perfmodel.Default()
			fab := ib.NewFabric(eng, plat)
			var n int
			envs := make([]core.Env, ranks)
			for i := range envs {
				envs[i] = core.Env{V: core.HostVerbs{Ctx: fab.AttachHCA(machine.NewNode(i)).Open(machine.HostMem)}}
			}
			envs[failing].V = regFailVerbs{Verbs: envs[failing].V, n: &n, k: tc.k, err: injected}
			cfg := core.ConfigFromPlatform(plat)
			cfg.Offload = false
			cfg.ConnectMode = "eager"
			w := core.NewWorld(eng, plat, cfg, envs)
			err := w.Run(func(r *core.Rank) error { return nil })
			if !errors.Is(err, injected) {
				t.Fatalf("Run returned %v, want the injected error", err)
			}
			if n < tc.k {
				t.Fatalf("only %d RegMR calls: the refusal at %d never fired", n, tc.k)
			}
			var leak *core.LeakError
			if errors.As(err, &leak) {
				t.Fatalf("Run reports a leak: %v", leak)
			}
			var dl *sim.DeadlockError
			if errors.As(err, &dl) {
				t.Fatalf("Run deadlocked: %v", err)
			}
			for i, rerr := range w.Errs() {
				noPeer := rerr != nil && strings.Contains(rerr.Error(), fmt.Sprintf("rank %d has no endpoint for rank %d (peer setup failed)", failing, i))
				if i != failing && noPeer != tc.noPeerOf {
					t.Errorf("rank %d: error %v; want the missing peer reported: %v", i, rerr, tc.noPeerOf)
				}
			}
		})
	}
}
