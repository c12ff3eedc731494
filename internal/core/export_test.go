package core

import "repro/internal/causal"

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
