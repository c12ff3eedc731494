package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/causal"
	"repro/internal/ib"
)

// StepRow is one row of the reporting table (report.go), as the tests
// in package core_test see it.
type StepRow struct {
	Stat    func(*Stats) *int64
	Counter string
	AddsN   bool
	Ev      causal.Kind
	Trace   string
}

// StepRows returns the reporting table, in step-kind order.
func StepRows() []StepRow {
	rows := make([]StepRow, len(steps))
	for k, r := range steps {
		rows[k] = StepRow{Stat: r.stat, Counter: r.counter, AddsN: r.addsN, Ev: r.ev, Trace: r.trace}
	}
	return rows
}

// DirtyRing names the first byte of r's inbound eager rings that is not
// zero, or returns "" when every ring is all zero, as it is when every
// packet that landed has been consumed.
func (r *Rank) DirtyRing() string {
	for _, ps := range r.pairs {
		for k, b := range ps.in.buf.Data {
			if b != 0 {
				return fmt.Sprintf("rank %d: ring from rank %d has byte %d = %#x", r.id, ps.id, k, b)
			}
		}
	}
	return ""
}

// StrayPacket names the first non-zero slot of r's inbound eager rings
// that is not a stale copy of a packet r already consumed, or returns ""
// when there is none. A WRITE faulted as delivered lands, is consumed,
// and is replayed into its old slot behind the cursor, which discard
// clears only when the cursor comes back to it; such a copy is a whole
// packet whose psn is below the pair's recvPSN, with nothing written
// past its tail.
func (r *Rank) StrayPacket() string {
	zero := func(b []byte) bool { return !slices.ContainsFunc(b, func(c byte) bool { return c != 0 }) }
	for _, ps := range r.pairs {
		for i := range ps.in.slots {
			s := ps.in.slot(i)
			if zero(s) {
				continue
			}
			h := decodeHeader(s[:hdrSize])
			end := hdrSize + h.payload + tailSize
			switch {
			case h.kind == pktNone || h.payload < 0 || end > len(s) ||
				binary.LittleEndian.Uint64(s[end-tailSize:end]) != tailMarker(h.seq):
				return fmt.Sprintf("rank %d: ring from rank %d slot %d holds no whole packet", r.id, ps.id, i)
			case h.psn >= ps.recvPSN:
				return fmt.Sprintf("rank %d: ring from rank %d slot %d holds psn %d, next expected %d", r.id, ps.id, i, h.psn, ps.recvPSN)
			case !zero(s[end:]):
				return fmt.Sprintf("rank %d: ring from rank %d slot %d has bytes past its packet's tail", r.id, ps.id, i)
			}
		}
	}
	return ""
}

// PlantRingPacket writes a credit packet whose psn is the pair's recvPSN
// plus offset into the slot behind the cursor of r's ring from peer,
// where a replayed copy lands, and with pastTail a byte after its tail,
// for StrayPacket to judge.
func (r *Rank) PlantRingPacket(peer, offset int, pastTail bool) {
	ps := r.pair(peer)
	s := ps.in.slot((ps.in.next + ps.in.slots - 1) % ps.in.slots)
	h := header{kind: pktCredit, src: uint16(peer), psn: ps.recvPSN + uint64(offset)}
	h.encode(s)
	binary.LittleEndian.PutUint64(s[hdrSize:], tailMarker(h.seq))
	if pastTail {
		s[hdrSize+tailSize] = 0xa5
	}
}

// HeldState names the first protocol state r still holds — a receive
// posted, deferred or locking ANY_SOURCE, an unexpected packet, an early
// RTR, a send waiting for its handshake or for credit, a queued control
// packet, a work request in flight — or returns "" when it holds none,
// as after a clean exit.
func (r *Rank) HeldState() string {
	type held struct {
		what string
		n    int
	}
	locked := 0
	if r.anyActive != nil {
		locked = 1
	}
	for _, h := range []held{{"wrMap", len(r.wrMap)}, {"deferred", r.deferred.Len()}, {"anyActive", locked}} {
		if h.n > 0 {
			return fmt.Sprintf("rank %d: %s holds %d", r.id, h.what, h.n)
		}
	}
	for _, ps := range slices.Concat([]*peerState{r.self}, r.pairs) {
		for _, h := range []held{
			{"expRecv", len(ps.expRecv)}, {"unexpected", len(ps.unexpected)}, {"earlyRTR", len(ps.earlyRTR)},
			{"sendsBySeq", len(ps.sendsBySeq)}, {"pendingCtrl", ps.pendingCtrl.Len()}, {"pendingSends", ps.pendingSends.Len()},
		} {
			if h.n > 0 {
				return fmt.Sprintf("rank %d: pair with rank %d: %s holds %d", r.id, ps.id, h.what, h.n)
			}
		}
	}
	return ""
}

// RunKeepingRings is Run without its final discard of the reserved
// pages, so DirtyRing reads what the protocol left in the eager rings.
func (w *World) RunKeepingRings(body func(r *Rank) error) error { return w.run(body) }

// PlantRingByte writes a nonzero byte at the end of r's ring from peer,
// past whatever a short packet writes and clears, for DirtyRing to find.
func (r *Rank) PlantRingByte(peer int) {
	d := r.pair(peer).in.buf.Data
	d[len(d)-1] = 0xa5
}

// ProgressCounts returns how many progress passes r ran, how many
// landings came through its QPs, how many rings the passes read, and how
// many pairs r has connected.
func (r *Rank) ProgressCounts() (passes, marks, visits int64, degree int) {
	return r.passes, r.marks, r.visits, len(r.pairs)
}

// UnwiredPeers lists the peers of r's pair table whose QP is not
// connected: a failed first contact must publish no half.
func (r *Rank) UnwiredPeers() []int {
	var out []int
	for _, ps := range r.pairs {
		if ps.qp.State != ib.QPConnected {
			out = append(out, ps.id)
		}
	}
	return out
}

// EarlyRTRs counts the RTRs r holds for sends it has not posted yet.
func (r *Rank) EarlyRTRs() int {
	n := 0
	for _, ps := range r.pairs {
		n += len(ps.earlyRTR)
	}
	return n
}
