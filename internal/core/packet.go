package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/ib"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Packet kinds on the eager rings (pktEager ... pktNackW) are declared
// in report.go from the causal profiler's wire codes; pktNone marks an
// empty slot.
const pktNone byte = 0

// hdrSize is the fixed eager packet header; tailSize the completion
// marker written after the payload (the paper's tail SGE).
const (
	hdrSize  = 64
	tailSize = 8
)

// header is the decoded packet header.
type header struct {
	kind    byte
	src     uint16
	tag     int32
	seq     uint64
	payload int
	// Rendezvous buffer advertisement (RTS/RTR).
	raddr uint64
	rkey  uint32
	rsize int
	// Piggybacked eager-ring credits being returned.
	credits uint32
	// psn is the per-directed-pair transport sequence number, counted
	// per packet written into the peer's ring (replays reuse the
	// original psn so the receiver can discard duplicates).
	psn uint64
}

// encode writes h into dst (hdrSize bytes).
func (h *header) encode(dst []byte) {
	_ = dst[hdrSize-1]
	dst[0] = h.kind
	dst[1] = 0 // reserved
	binary.LittleEndian.PutUint16(dst[2:], h.src)
	binary.LittleEndian.PutUint32(dst[4:], uint32(h.tag))
	binary.LittleEndian.PutUint64(dst[8:], h.seq)
	binary.LittleEndian.PutUint64(dst[16:], uint64(h.payload))
	binary.LittleEndian.PutUint64(dst[24:], h.raddr)
	binary.LittleEndian.PutUint32(dst[32:], h.rkey)
	binary.LittleEndian.PutUint64(dst[36:], uint64(h.rsize))
	binary.LittleEndian.PutUint32(dst[44:], h.credits)
	binary.LittleEndian.PutUint64(dst[48:], h.psn)
}

// decodeHeader parses hdrSize bytes.
func decodeHeader(src []byte) header {
	_ = src[hdrSize-1]
	return header{
		kind:    src[0],
		src:     binary.LittleEndian.Uint16(src[2:]),
		tag:     int32(binary.LittleEndian.Uint32(src[4:])),
		seq:     binary.LittleEndian.Uint64(src[8:]),
		payload: int(binary.LittleEndian.Uint64(src[16:])),
		raddr:   binary.LittleEndian.Uint64(src[24:]),
		rkey:    binary.LittleEndian.Uint32(src[32:]),
		rsize:   int(binary.LittleEndian.Uint64(src[36:])),
		credits: binary.LittleEndian.Uint32(src[44:]),
		psn:     binary.LittleEndian.Uint64(src[48:]),
	}
}

// tailMarker is the nonzero value written to the tail SGE; the receiver
// verifies it to know the whole packet (header + payload + tail, in SGE
// order) has landed.
func tailMarker(seq uint64) uint64 { return seq + 1 }

// ring is one direction's eager buffer: slots of fixed size in the
// receiver's memory, RDMA-written by exactly one sender and consumed in
// order.
type ring struct {
	buf      *machine.Buffer
	mr       *ib.MR
	slots    int
	slotSize int
	// next is the local consume cursor.
	next int
}

// ringDesc is what the sender knows about the receiver's ring.
type ringDesc struct {
	addr     uint64
	rkey     uint32
	slots    int
	slotSize int
}

func slotBytes(eagerMax int) int { return hdrSize + eagerMax + tailSize }

// newRing allocates and registers a ring of n slots in dom.
func newRing(p *sim.Proc, v Verbs, pd *ib.PD, dom *machine.Domain, slots, eagerMax int) (*ring, error) {
	sz := slots * slotBytes(eagerMax)
	buf := dom.Alloc(sz)
	mr, err := v.RegMR(p, pd, dom, buf.Addr, sz)
	if err != nil {
		return nil, fmt.Errorf("core: ring registration: %w", err)
	}
	return &ring{buf: buf, mr: mr, slots: slots, slotSize: slotBytes(eagerMax)}, nil
}

// desc returns the advertisement the sender needs.
func (r *ring) desc() ringDesc {
	return ringDesc{addr: r.buf.Addr, rkey: r.mr.RKey, slots: r.slots, slotSize: r.slotSize}
}

// slot returns slot i's bytes.
func (r *ring) slot(i int) []byte {
	return r.buf.Data[i*r.slotSize : (i+1)*r.slotSize]
}

// peek decodes the next slot if a complete packet is present, verifying
// the tail marker.
func (r *ring) peek() (header, []byte, bool) {
	s := r.slot(r.next)
	if s[0] == pktNone {
		return header{}, nil, false
	}
	h := decodeHeader(s[:hdrSize])
	tailOff := hdrSize + h.payload
	tail := binary.LittleEndian.Uint64(s[tailOff : tailOff+tailSize])
	if tail != tailMarker(h.seq) {
		// Header present but tail not yet written: partial packet.
		// Cannot happen with the simulator's atomic delivery, but the
		// check mirrors the real protocol and guards the invariant.
		return header{}, nil, false
	}
	return h, s[hdrSize : hdrSize+h.payload], true
}

// discard clears the current slot's packet of n payload bytes WITHOUT
// advancing the cursor: used to drop a replayed duplicate (psn below the
// next expected) that a faulted-but-delivered write re-deposited. The
// cursor must stay put because the slot is still the landing zone for
// the next expected packet of this residue class; its credits were
// already applied on first delivery, so no credit is returned either.
// Every write puts exactly header, payload and tail at the slot's start,
// so clearing those bytes leaves the whole slot zero again.
func (r *ring) discard(n int) {
	clear(r.slot(r.next)[:hdrSize+n+tailSize])
}

// consume clears the current slot's packet and advances the cursor.
func (r *ring) consume(n int) {
	r.discard(n)
	r.next = (r.next + 1) % r.slots
}

// slotAddr returns the remote address of slot i given a descriptor.
func (d ringDesc) slotAddr(i int) uint64 {
	return d.addr + uint64(i*d.slotSize)
}
