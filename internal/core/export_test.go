package core

import (
	"fmt"

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
