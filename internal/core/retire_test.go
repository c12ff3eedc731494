package core

// Retire safety: a blocking operation's request is recycled (Rank.retire)
// the moment its Wait returns, so at that instant nothing in the protocol
// may still hold the pointer — a later packet or completion routed to it
// would complete whatever message the record has been reused for. The
// rows below drive every way a request travels through the protocol
// structures, stop at exactly that instant, and look.

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/ib"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// rotate visits every item of q, oldest first, leaving q as it was.
func rotate[T any](q *sim.FIFO[T], visit func(T)) {
	for i := q.Len(); i > 0; i-- {
		v := q.Pop()
		visit(v)
		q.Push(v)
	}
}

// holder names one protocol structure of r that references q, or "".
func holder(r *Rank, q *Request) string {
	at := ""
	for _, act := range r.wrMap {
		if act.req == q {
			at = "wrMap"
		}
	}
	for i, ps := range r.peers {
		if ps == nil {
			continue
		}
		for _, x := range ps.expRecv {
			if x == q {
				at = fmt.Sprintf("peers[%d].expRecv", i)
			}
		}
		for _, x := range ps.sendsBySeq {
			if x == q {
				at = fmt.Sprintf("peers[%d].sendsBySeq", i)
			}
		}
		rotate(&ps.pendingSends, func(x *Request) {
			if x == q {
				at = fmt.Sprintf("peers[%d].pendingSends", i)
			}
		})
	}
	rotate(&r.deferred, func(x *Request) {
		if x == q {
			at = "deferred"
		}
	})
	if r.anyActive == q {
		at = "anyActive"
	}
	return at
}

// retireOps runs one rank's side of a row through Isend/Irecv + Wait +
// retire — what Send, Recv, Sendrecv and group.waitAll do — with a look
// at the protocol state between the Wait and the retire.
type retireOps struct {
	t *testing.T
	r *Rank
	p *sim.Proc

	retired, kept int  // requests Rank.retire recycled / left alone
	queued        int  // sends that waited in pendingSends
	rtrWait       int  // receives that advertised their buffer (RTR sent)
	simul         bool // a send saw its RTS cross an RTR
}

// retire hands q to Rank.retire and checks what it did with it: a
// request is recycled if and only if it completed cleanly on a healthy
// rank, and then nothing holds it.
func (o *retireOps) retire(q *Request) {
	o.t.Helper()
	r := o.r
	want := q.completed && q.err == nil && r.fatal == nil
	state, held := fmt.Sprintf("completed=%v err=%v fatal=%v", q.completed, q.err, r.fatal), holder(r, q)
	o.simul = o.simul || (q.isSend && q.proto == protoSimulRzv)
	n := len(r.reqFree)
	r.retire(q)
	got := len(r.reqFree) == n+1 && r.reqFree[n] == q
	switch {
	case got && !want:
		o.t.Errorf("rank %d: retire recycled a request with %s", r.id, state)
	case !got && want:
		o.t.Errorf("rank %d: retire left a cleanly completed request alone (%s)", r.id, state)
	case got && held != "":
		o.t.Errorf("rank %d: request recycled while %s still holds it", r.id, held)
	}
	if got {
		o.retired++
	} else {
		o.kept++
	}
	o.poolClean()
}

// poolClean checks the invariant the free list keeps at all times: every
// record on it is zeroed and referenced by nothing.
func (o *retireOps) poolClean() {
	o.t.Helper()
	for _, q := range o.r.reqFree {
		if !reflect.DeepEqual(*q, Request{}) {
			o.t.Errorf("rank %d: a record on the free list is not zeroed: %+v", o.r.id, *q)
		}
		if at := holder(o.r, q); at != "" {
			o.t.Errorf("rank %d: %s holds a record that is on the free list", o.r.id, at)
		}
	}
}

func (o *retireOps) isend(dst, tag int, s Slice) *Request {
	q, err := o.r.Isend(o.p, dst, tag, s)
	if err != nil {
		o.t.Errorf("rank %d: Isend: %v", o.r.id, err)
	}
	if q.state == stEagerQueued {
		o.queued++
	}
	return q
}

func (o *retireOps) irecv(src, tag int, s Slice) *Request {
	q, err := o.r.Irecv(o.p, src, tag, s)
	if err != nil {
		o.t.Errorf("rank %d: Irecv: %v", o.r.id, err)
	}
	if q.state == stRTRWait {
		o.rtrWait++
	}
	return q
}

// wait is the tail of every blocking operation.
func (o *retireOps) wait(q *Request) error {
	_, err := o.r.Wait(o.p, q)
	o.retire(q)
	return err
}

func (o *retireOps) send(dst, tag int, s Slice) error { return o.wait(o.isend(dst, tag, s)) }
func (o *retireOps) recv(src, tag int, s Slice) error { return o.wait(o.irecv(src, tag, s)) }

// retireWorld is a host-verbs world of n ranks on one fabric.
func retireWorld(n int, tune func(cfg *Config, fab *ib.Fabric)) *World {
	eng, plat := sim.NewEngine(), perfmodel.Default()
	fab := ib.NewFabric(eng, plat)
	envs := make([]Env, n)
	for i := range envs {
		node := machine.NewNode(i)
		envs[i] = Env{V: HostVerbs{Ctx: fab.AttachHCA(node).Open(machine.HostMem), Node: node}, Node: node}
	}
	cfg := ConfigFromPlatform(plat)
	cfg.Offload = false
	if tune != nil {
		tune(&cfg, fab)
	}
	return NewWorld(eng, plat, cfg, envs)
}

func TestRetireHoldsNoReference(t *testing.T) {
	const (
		small = 64
		big   = 64 << 10 // over EagerMax: rendezvous
		late  = 500 * sim.Microsecond
	)
	fill := func(b *machine.Buffer, salt int) {
		for i := range b.Data {
			b.Data[i] = byte(i*7 + salt)
		}
	}
	same := func(b *machine.Buffer, n, salt int) error {
		for i, x := range b.Data[:n] {
			if x != byte(i*7+salt) {
				return fmt.Errorf("payload byte %d is %#x, want %#x", i, x, byte(i*7+salt))
			}
		}
		return nil
	}
	// oneWay is rank 0 sending n bytes to rank 1, which posts a receive
	// of room bytes; who sleeps first decides the protocol.
	oneWay := func(n, room int, sendAfter, recvAfter sim.Duration) func(o *retireOps) error {
		return func(o *retireOps) error {
			switch o.r.id {
			case 0:
				b := o.r.Mem(n)
				fill(b, 1)
				o.p.Sleep(sendAfter)
				return o.send(1, 5, Whole(b))
			case 1:
				b := o.r.Mem(room)
				o.p.Sleep(recvAfter)
				if err := o.recv(0, 5, Whole(b)); err != nil {
					return err
				}
				return same(b, n, 1)
			}
			return nil
		}
	}
	rows := []struct {
		name  string
		ranks int
		tune  func(cfg *Config, fab *ib.Fabric)
		body  func(o *retireOps) error
		// after checks the row took the path it names (o is rank 0's, w
		// the finished world).
		after func(t *testing.T, o []*retireOps, w *World)
	}{
		{name: "eager", ranks: 2, body: oneWay(small, small, 0, 0)},
		{
			name: "credit-starved eager", ranks: 2,
			tune: func(cfg *Config, _ *ib.Fabric) { cfg.EagerSlots = 4 },
			body: func(o *retireOps) error {
				const msgs = 12
				b := o.r.Mem(small)
				for i := 0; i < msgs; i++ {
					if o.r.id == 0 {
						fill(b, i)
						if err := o.send(1, i, Whole(b)); err != nil {
							return err
						}
						continue
					}
					if i == 0 {
						o.p.Sleep(late) // let the ring fill and the sender queue
					}
					if err := o.recv(0, i, Whole(b)); err != nil {
						return err
					}
					if err := same(b, small, i); err != nil {
						return err
					}
				}
				return nil
			},
			after: func(t *testing.T, o []*retireOps, _ *World) {
				if o[0].queued == 0 {
					t.Error("no send ever waited in pendingSends")
				}
			},
		},
		{
			name: "sender-first rendezvous", ranks: 2, body: oneWay(big, big, 0, late),
			after: func(t *testing.T, _ []*retireOps, w *World) {
				if w.ranks[1].Stats.Unexpected == 0 || w.ranks[0].Stats.RndvWrites != 0 {
					t.Error("the RTS did not arrive first")
				}
			},
		},
		{
			name: "receiver-first rendezvous", ranks: 2, body: oneWay(big, big, late, 0),
			after: func(t *testing.T, o []*retireOps, w *World) {
				if w.ranks[0].Stats.RndvWrites != 1 || o[1].rtrWait != 1 {
					t.Error("the sender did not answer an RTR with a write")
				}
			},
		},
		{
			name: "simultaneous rendezvous", ranks: 2, body: oneWay(big, big, 0, 0),
			after: func(t *testing.T, o []*retireOps, _ *World) {
				if !o[0].simul || o[1].rtrWait != 1 {
					t.Error("the RTS and the RTR did not cross")
				}
			},
		},
		{
			// Sender eager, receiver rendezvous: the receive advertised
			// its large buffer, the small message came eagerly anyway.
			name: "mis-prediction, eager into an RTR", ranks: 2, body: oneWay(small, big, late, 0),
			after: func(t *testing.T, o []*retireOps, w *World) {
				if o[1].rtrWait != 1 || w.ranks[0].Stats.EagerSends != 1 {
					t.Error("the receive did not send an RTR for an eager message")
				}
			},
		},
		{
			// Sender rendezvous, receiver too small: both sides complete
			// with ErrTruncate, through the real blocking calls, and
			// neither request may come back to the free list.
			name: "mis-prediction, truncated rendezvous is not retired", ranks: 2,
			body: func(o *retireOps) error {
				r, p, peer := o.r, o.p, 1-o.r.id
				// One clean exchange first, so the free list is not
				// empty and the failing call takes its record from it.
				warm := r.Mem(small)
				if _, err := r.Sendrecv(p, peer, 1, Whole(warm), peer, 1, Whole(r.Mem(small))); err != nil {
					return err
				}
				if len(r.reqFree) != 2 {
					return fmt.Errorf("%d records on the free list after a clean Sendrecv, want 2", len(r.reqFree))
				}
				next := r.reqFree[1]
				var err error
				if r.id == 0 {
					err = r.Send(p, 1, 5, Whole(r.Mem(big)))
				} else {
					_, err = r.Recv(p, 0, 5, Whole(r.Mem(small)))
				}
				if !errors.Is(err, ErrTruncate) {
					return fmt.Errorf("got %v, want ErrTruncate", err)
				}
				if len(r.reqFree) != 1 || r.reqFree[0] == next {
					return fmt.Errorf("the truncated request was recycled (%d on the free list)", len(r.reqFree))
				}
				if !next.completed || !errors.Is(next.err, ErrTruncate) {
					return fmt.Errorf("the truncated request was wiped: %+v", *next)
				}
				o.poolClean()
				return nil
			},
		},
		{
			// Rank 0 posts an ANY_SOURCE receive (which locks sequence
			// assignment), then a receive naming rank 1 (deferred behind
			// the lock), then waits for both.
			name: "ANY_SOURCE lock and a deferred receive", ranks: 3,
			body: func(o *retireOps) error {
				r, p := o.r, o.p
				if r.id != 0 {
					b := r.Mem(small)
					fill(b, r.id)
					p.Sleep(late * sim.Duration(r.id))
					return o.send(0, 9, Whole(b))
				}
				first, second := r.Mem(small), r.Mem(small)
				qa := o.irecv(AnySource, 9, Whole(first))
				qd := o.irecv(2, 9, Whole(second))
				if r.anyActive != qa || r.deferred.Len() != 1 {
					return fmt.Errorf("anyActive set: %v, %d deferred; want the lock held and one deferred", r.anyActive == qa, r.deferred.Len())
				}
				if err := o.wait(qa); err != nil {
					return err
				}
				if err := o.wait(qd); err != nil {
					return err
				}
				return errors.Join(same(first, small, 1), same(second, small, 2))
			},
		},
		{
			name: "loopback", ranks: 1,
			body: func(o *retireOps) error {
				r := o.r
				src, dst := r.Mem(small), r.Mem(small)
				fill(src, 3)
				// Receive first (matched from expRecv), then send first
				// (matched from the unexpected queue).
				q := o.irecv(0, 1, Whole(dst))
				if err := o.send(0, 1, Whole(src)); err != nil {
					return err
				}
				if err := o.wait(q); err != nil {
					return err
				}
				q = o.isend(0, 2, Whole(src))
				if err := o.recv(0, 2, Whole(dst)); err != nil {
					return err
				}
				if err := o.wait(q); err != nil {
					return err
				}
				return same(dst, small, 3)
			},
		},
		{
			// Every third RDMA write or read fails and is replayed: the
			// request rides in a wrMap action that is taken out and put
			// back once per attempt.
			name: "IB faults force replays", ranks: 2,
			tune: func(cfg *Config, fab *ib.Fabric) {
				plan := faults.NewPlan(11)
				plan.IBError, plan.IBDelivered = 0.3, 0.5
				cfg.Faults = faults.New(fab.Eng, plan)
				fab.Faults = cfg.Faults
			},
			body: func(o *retireOps) error {
				peer := 1 - o.r.id
				for i, n := range []int{small, big, small, small, big, small, big, small} {
					sb, rb := o.r.Mem(n), o.r.Mem(n)
					fill(sb, i+o.r.id)
					qs, qr := o.isend(peer, i, Whole(sb)), o.irecv(peer, i, Whole(rb))
					if err := errors.Join(o.wait(qs), o.wait(qr)); err != nil {
						return err
					}
					if err := same(rb, n, i+peer); err != nil {
						return err
					}
				}
				return nil
			},
			after: func(t *testing.T, _ []*retireOps, w *World) {
				if w.ranks[0].Stats.Retries+w.ranks[1].Stats.Retries == 0 {
					t.Error("the plan forced no replay")
				}
			},
		},
		{
			// A request that completed cleanly is still not recycled once
			// the rank is poisoned, nor one that is not complete yet.
			name: "poisoned rank and incomplete request are not retired", ranks: 2,
			tune: func(cfg *Config, _ *ib.Fabric) { cfg.EagerSlots = 4 },
			body: func(o *retireOps) error {
				r, p := o.r, o.p
				b := r.Mem(small)
				if r.id == 1 {
					p.Sleep(late)
					for i := 0; i < 6; i++ {
						if err := o.recv(0, i, Whole(b)); err != nil {
							return err
						}
					}
					return nil
				}
				var qs []*Request
				for i := 0; i < 5; i++ {
					qs = append(qs, o.isend(1, i, Whole(b)))
				}
				last := qs[len(qs)-1]
				if last.state != stEagerQueued {
					return fmt.Errorf("the fifth send into a 4-slot ring is in state %d, want queued", last.state)
				}
				o.retire(last) // still in pendingSends: must be left alone
				for _, q := range qs {
					if err := o.wait(q); err != nil {
						return err
					}
				}
				q := o.isend(1, 5, Whole(b))
				if _, err := r.Wait(p, q); err != nil {
					return err
				}
				r.fatal = errors.New("poisoned for the test")
				o.retire(q)
				r.fatal = nil
				return nil
			},
			after: func(t *testing.T, o []*retireOps, _ *World) {
				if o[0].kept != 2 {
					t.Errorf("%d requests were left alone, want the queued one and the poisoned one", o[0].kept)
				}
			},
		},
		{
			// The real blocking calls and the collectives built on them
			// and on isend/irecv + waitAll, with the free list's
			// invariant checked after each.
			name: "blocking calls and collectives", ranks: 4,
			body: func(o *retireOps) error {
				r, p := o.r, o.p
				n, me := r.Size(), r.id
				right, left := (me+1)%n, (me+n-1)%n
				for _, size := range []int{small, big} {
					sb, rb := r.Mem(size), r.Mem(size)
					fill(sb, me)
					if _, err := r.Sendrecv(p, right, 1, Whole(sb), left, 1, Whole(rb)); err != nil {
						return err
					}
					if err := same(rb, size, left); err != nil {
						return err
					}
					o.poolClean()
				}
				vec := r.Mem(8 * 16)
				for _, step := range []func() error{
					func() error { return r.Barrier(p) },
					func() error { return r.Allreduce(p, Whole(vec), OpSumF64) },
					func() error { return r.Bcast(p, 1, Whole(vec)) },
					func() error { return r.Gather(p, 0, Whole(r.Mem(small)), Whole(r.Mem(small*n))) },
					func() error { return r.Scatter(p, 2, Whole(r.Mem(small*n)), Whole(r.Mem(small))) },
					func() error { return r.Alltoall(p, Whole(r.Mem(big*n)), Whole(r.Mem(big*n)), big) },
				} {
					if err := step(); err != nil {
						return err
					}
					o.poolClean()
				}
				if len(r.reqFree) == 0 {
					return errors.New("no request was ever recycled")
				}
				return nil
			},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			w := retireWorld(row.ranks, row.tune)
			ops := make([]*retireOps, row.ranks)
			err := w.Run(func(r *Rank) error {
				ops[r.id] = &retireOps{t: t, r: r, p: r.Proc()}
				return row.body(ops[r.id])
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, o := range ops {
				o.poolClean()
				for wrid, act := range w.ranks[i].wrMap {
					if act.req != nil { // a control packet's may still be unpolled
						t.Errorf("rank %d finished with work request %d (%v) still routed to a request", i, wrid, act.kind)
					}
				}
			}
			if row.after != nil {
				row.after(t, ops, w)
			}
		})
	}
}
