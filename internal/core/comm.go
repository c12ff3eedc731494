package core

import (
	"sort"

	"repro/internal/sim"
)

// maxUserTag bounds user tags so communicator ids can be encoded above
// them.
const maxUserTag = 1 << 16

// collTagStride spaces the collective tag blocks of successive
// groups: group id k uses tagBarrier-16k … tagBcastScat-16k, so the
// world group (id 0) keeps -100…-112 and no two groups share a tag.
const collTagStride = 16

// group is what a collective algorithm knows of its communicator: who
// the members are, which of them this process is, and the tag block its
// phases use. Every body in collectives.go and coll_algos.go is a
// method on it, written once; Comm embeds it, and Rank embeds the world
// group, so r.Allreduce and r.CommWorld().Allreduce are one function.
type group struct {
	r  *Rank
	id int // 0 is the world group; Split numbers the others from 1
	// members lists world ranks by comm rank. The world group leaves it
	// nil — its translation is the identity, and a table of n ints on
	// each of n ranks is 8 MB at 1000 ranks.
	members []int
	n       int
	myRank  int
}

// Comm is a communicator: an ordered group of world ranks with a
// private tag space, carrying the collectives of its group plus
// point-to-point calls addressed by comm rank.
//
// Matching still runs on per-world-pair sequence ids (§IV-B3), so two
// communicators that share a rank *pair* must not have messages in
// flight between that pair at the same time. Groups produced by Split
// have disjoint pair sets across colors, and row/column grids share no
// pairs, so the common patterns are safe.
type Comm struct{ group }

// CommWorld returns the world as a communicator: the group the Rank
// collectives run on.
func (r *Rank) CommWorld() *Comm { return &r.world }

// Rank returns this process's rank within the communicator.
func (c *Comm) Rank() int { return c.myRank }

// Size returns the group size.
func (c *Comm) Size() int { return c.n }

// WorldRank translates a comm rank to a world rank.
func (c *Comm) WorldRank(i int) int { return c.world(i) }

// world translates a comm rank — or AnySource — to what Rank.Isend and
// Rank.Irecv take; a rank outside the group becomes one they reject
// with ErrBadRank.
func (g *group) world(i int) int {
	switch {
	case g.members == nil || i == AnySource:
		return i
	case i < 0 || i >= g.n:
		return g.r.w.Size()
	}
	return g.members[i]
}

// userTag maps a user tag into this communicator's tag space.
func (c *Comm) userTag(t int) (int, error) {
	if t < 0 || t >= maxUserTag {
		return 0, ErrBadTag
	}
	return (c.id+1)*maxUserTag + t, nil
}

// recvTag is userTag for the receiving side, where AnyTag is allowed.
func (c *Comm) recvTag(t int) (int, error) {
	if t == AnyTag {
		return AnyTag, nil
	}
	return c.userTag(t)
}

// Split partitions the communicator by color, ordering each new group
// by (key, old rank) — MPI_Comm_split. It is collective: every member
// must call it. Ranks passing color < 0 receive nil (MPI_UNDEFINED).
func (c *Comm) Split(p *sim.Proc, color, key int) (*Comm, error) {
	r := c.r
	// Allgather (color, key) over the current communicator.
	mine, all := r.Mem(16), r.Mem(16*c.n)
	defer r.v.Domain().Free(mine)
	defer r.v.Domain().Free(all)
	PutF64s(mine.Data, []float64{float64(color), float64(key)})
	if err := c.allgather(p, Whole(mine), Whole(all)); err != nil {
		return nil, err
	}
	vals := GetF64s(all.Data, 2*c.n)
	type entry struct{ color, key, world int }
	var picked []entry
	for i := 0; i < c.n; i++ {
		col := int(vals[2*i])
		if col == color && color >= 0 {
			picked = append(picked, entry{col, int(vals[2*i+1]), c.world(i)})
		}
	}
	r.splitSeq++
	if color < 0 {
		return nil, nil
	}
	sort.Slice(picked, func(a, b int) bool {
		if picked[a].key != picked[b].key {
			return picked[a].key < picked[b].key
		}
		return picked[a].world < picked[b].world
	})
	nc := &Comm{group{r: r, id: r.splitSeq, members: make([]int, len(picked)), n: len(picked), myRank: -1}}
	for i, e := range picked {
		nc.members[i] = e.world
		if e.world == r.id {
			nc.myRank = i
		}
	}
	return nc, nil
}

// ---- Point-to-point on the communicator ----

// Send is a blocking send to comm rank dst. Like every point-to-point
// call on a communicator it returns ErrBadTag for a tag outside
// [0, 65536).
func (c *Comm) Send(p *sim.Proc, dst, tag int, s Slice) error {
	t, err := c.userTag(tag)
	if err != nil {
		return err
	}
	return c.r.Send(p, c.world(dst), t, s)
}

// Recv is a blocking receive from comm rank src (AnySource and AnyTag
// allowed).
func (c *Comm) Recv(p *sim.Proc, src, tag int, s Slice) (Status, error) {
	t, err := c.recvTag(tag)
	if err != nil {
		return Status{}, err
	}
	st, err := c.r.Recv(p, c.world(src), t, s)
	return c.localStatus(st), err
}

// Isend / Irecv are the nonblocking forms.
func (c *Comm) Isend(p *sim.Proc, dst, tag int, s Slice) (*Request, error) {
	t, err := c.userTag(tag)
	if err != nil {
		return nil, err
	}
	return c.r.Isend(p, c.world(dst), t, s)
}

func (c *Comm) Irecv(p *sim.Proc, src, tag int, s Slice) (*Request, error) {
	t, err := c.recvTag(tag)
	if err != nil {
		return nil, err
	}
	return c.r.Irecv(p, c.world(src), t, s)
}

// Sendrecv exchanges with two comm ranks.
func (c *Comm) Sendrecv(p *sim.Proc, dst, stag int, sbuf Slice, src, rtag int, rbuf Slice) (Status, error) {
	st, err := c.userTag(stag)
	if err != nil {
		return Status{}, err
	}
	rt, err := c.recvTag(rtag)
	if err != nil {
		return Status{}, err
	}
	ws, err := c.r.Sendrecv(p, c.world(dst), st, sbuf, c.world(src), rt, rbuf)
	return c.localStatus(ws), err
}

// localStatus translates a world status into comm coordinates.
func (c *Comm) localStatus(st Status) Status {
	for i, w := range c.members {
		if w == st.Source {
			st.Source = i
			break
		}
	}
	if st.Tag >= maxUserTag {
		st.Tag = st.Tag % maxUserTag
	}
	return st
}

// ---- What a collective body sees of its group ----
//
// The bodies address peers by comm rank and name their phases by the
// world's tags; these five translate both and hand over to the Rank's
// point-to-point layer.

func (g *group) collTag(t int) int { return t - collTagStride*g.id }

func (g *group) isend(p *sim.Proc, dst, tag int, s Slice) (*Request, error) {
	return g.r.Isend(p, g.world(dst), g.collTag(tag), s)
}

func (g *group) irecv(p *sim.Proc, src, tag int, s Slice) (*Request, error) {
	return g.r.Irecv(p, g.world(src), g.collTag(tag), s)
}

// waitAll waits for requests isend and irecv started and hands them back
// to the rank: a collective's requests never leave it.
func (g *group) waitAll(p *sim.Proc, reqs []*Request) error {
	err := g.r.WaitAll(p, reqs...)
	g.r.retire(reqs...)
	return err
}

func (g *group) send(p *sim.Proc, dst, tag int, s Slice) error {
	return g.r.Send(p, g.world(dst), g.collTag(tag), s)
}

func (g *group) recv(p *sim.Proc, src, tag int, s Slice) (Status, error) {
	return g.r.Recv(p, g.world(src), g.collTag(tag), s)
}

// sendrecv sends sbuf to dst while receiving rbuf from src, both under
// tag.
func (g *group) sendrecv(p *sim.Proc, tag, dst int, sbuf Slice, src int, rbuf Slice) error {
	t := g.collTag(tag)
	_, err := g.r.Sendrecv(p, g.world(dst), t, sbuf, g.world(src), t, rbuf)
	return err
}

// bracket runs body as one reported collective call — on the world
// group only: the happens-before graph fans every rank's entry into
// every exit, which holds only when every rank takes part, so a
// sub-communicator's collective shows up as its point-to-point events.
func (g *group) bracket(p *sim.Proc, op int32, algo uint8, body func() error) error {
	if g.id != 0 {
		return body()
	}
	return g.r.collective(p, op, algo, body)
}
