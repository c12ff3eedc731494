package core

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sim"
)

// ---- Probe ----

// Iprobe checks, without receiving, whether the next message from src
// (its next sequence id) has arrived and matches tag. It drives
// progress once. AnySource means any other rank, as in Irecv: only a
// probe naming this rank's own id sees a message it sent to itself.
//
// Because DCFA-MPI matches by per-pair sequence ids, a probe refers to
// the message that the *next posted receive* from src would match.
func (r *Rank) Iprobe(p *sim.Proc, src, tag int) (Status, bool, error) {
	if src != AnySource && (src < 0 || src >= r.w.Size()) {
		return Status{}, false, ErrBadRank
	}
	r.progress(p)
	pairs := r.pairs
	if src != AnySource {
		pairs = []*peerState{r.pair(src)}
	}
	for _, ps := range pairs {
		if a := ps.probe(tag); a != nil {
			n := a.h.payload
			if a.h.kind == pktRTS {
				n = a.h.rsize
			}
			return Status{Source: ps.id, Tag: int(a.h.tag), Len: n}, true, nil
		}
	}
	return Status{}, false, nil
}

// Probe blocks until Iprobe succeeds.
func (r *Rank) Probe(p *sim.Proc, src, tag int) (Status, error) {
	for {
		st, ok, err := r.Iprobe(p, src, tag)
		if err != nil || ok {
			return st, err
		}
		if err := r.idle(p); err != nil {
			return Status{}, err
		}
	}
}

// ---- Wait variants ----

// Waitany blocks until at least one of the requests completes and
// returns its index. After a fatal transport error none of them can
// complete: the first is failed with that error and returned, as Wait
// would fail it.
func (r *Rank) Waitany(p *sim.Proc, reqs ...*Request) (int, Status, error) {
	if len(reqs) == 0 {
		return -1, Status{}, fmt.Errorf("core: Waitany with no requests")
	}
	for {
		for i, q := range reqs {
			if q.completed {
				q.seen()
				return i, q.Status(), q.err
			}
		}
		if err := r.idle(p); err != nil {
			reqs[0].complete(p, err)
		}
	}
}

// ---- Typed (datatype) point-to-point ----

// SendTyped packs the strided region described by dt starting at s and
// sends it as one contiguous message. Packing runs on the rank's own
// core unless the world enables host-offloaded packing (the paper's
// proposed DCFA-MPI CMD offload for user-defined datatypes) and the
// provider supports it.
func (r *Rank) SendTyped(p *sim.Proc, dst, tag int, s Slice, dt Datatype) error {
	if s.N < dt.Extent() {
		return fmt.Errorf("core: typed send: slice %d bytes < extent %d", s.N, dt.Extent())
	}
	packed := r.Mem(dt.PackedSize())
	defer r.v.Domain().Free(packed)
	r.packInto(p, packed.Data, s.Bytes(), dt)
	return r.Send(p, dst, tag, Whole(packed))
}

// RecvTyped receives a contiguous message and unpacks it into the
// strided region described by dt at s.
func (r *Rank) RecvTyped(p *sim.Proc, src, tag int, s Slice, dt Datatype) (Status, error) {
	if s.N < dt.Extent() {
		return Status{}, fmt.Errorf("core: typed recv: slice %d bytes < extent %d", s.N, dt.Extent())
	}
	packed := r.Mem(dt.PackedSize())
	defer r.v.Domain().Free(packed)
	st, err := r.Recv(p, src, tag, Whole(packed))
	if err != nil {
		return st, err
	}
	dt.Unpack(s.Bytes(), packed.Data)
	p.Sleep(r.packCost(dt))
	return st, nil
}

// Pack gathers the typed region at src into dst, charging the pack
// cost (and using the host-offloaded path when configured). dst must
// have dt.PackedSize() bytes.
func (r *Rank) Pack(p *sim.Proc, dst, src []byte, dt Datatype) {
	r.packInto(p, dst, src, dt)
}

// Unpack scatters contiguous src into the typed region at dst,
// charging the local scatter cost.
func (r *Rank) Unpack(p *sim.Proc, dst, src []byte, dt Datatype) {
	dt.Unpack(dst, src)
	p.Sleep(r.packCost(dt))
}

// packInto performs the pack and charges its cost. On a DCFA provider
// with offloaded packing enabled, a large enough gather is delegated to
// the host over the CMD channel; if the channel gives up, the command
// ran no host work, so the rank packs locally instead.
func (r *Rank) packInto(p *sim.Proc, dst, src []byte, dt Datatype) {
	if d, ok := r.v.(DCFAVerbs); ok && r.w.Cfg.OffloadDatatypePack &&
		dt.PackedSize() >= r.w.Cfg.OffloadPackMinSize {
		if d.Pack(p, dt.PackedSize(), func() { dt.Pack(dst, src) }) == nil {
			r.step(p, stepOffloadedPack, r.id, 0, dt.PackedSize())
			return
		}
	}
	dt.Pack(dst, src)
	p.Sleep(r.packCost(dt))
}

// packCost is the local (slow in-order core) gather/scatter cost.
func (r *Rank) packCost(dt Datatype) sim.Duration {
	rate := r.w.Plat.HostPackRate
	if r.Loc() == machine.MicMem {
		rate = r.w.Plat.PhiPackRate
	}
	return sim.Duration(float64(dt.PackedSize()) / rate * float64(sim.Second))
}
