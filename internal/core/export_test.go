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
	for _, i := range r.active {
		for k, b := range r.peers[i].in.buf.Data {
			if b != 0 {
				return fmt.Sprintf("rank %d: ring from rank %d has byte %d = %#x", r.id, i, k, b)
			}
		}
	}
	return ""
}

// ProgressCounts returns how many progress passes r ran, how many
// landings came through its QPs, how many rings the passes read, and how
// many pairs r has connected.
func (r *Rank) ProgressCounts() (passes, marks, visits int64, degree int) {
	return r.passes, r.marks, r.visits, len(r.active)
}

// UnwiredPeers lists the peers r lists as active whose QP is not
// connected: a failed first contact must publish no half.
func (r *Rank) UnwiredPeers() []int {
	var out []int
	for _, j := range r.active {
		if r.peers[j].qp.State != ib.QPConnected {
			out = append(out, j)
		}
	}
	return out
}
