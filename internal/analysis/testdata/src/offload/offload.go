// Package offload seeds violations of the paper's offloading
// send-buffer protocol on local stand-ins for the dcfa offload verbs:
// the required order is RegOffloadMR → SyncOffloadMR → RDMA post →
// DeregOffloadMR. Posting before the sync sends stale bytes; touching
// the region after dereg touches freed card memory.
package offload

type Proc struct{}

type MR struct{ LKey uint32 }

type OffloadMR struct {
	HostBuf []byte
	HostMR  *MR
	Size    int
}

type Verbs struct{}

func (v *Verbs) RegOffloadMR(p *Proc, size int) (*OffloadMR, error)      { return &OffloadMR{}, nil }
func (v *Verbs) SyncOffloadMR(p *Proc, omr *OffloadMR, off, n int) error { return nil }
func (v *Verbs) DeregOffloadMR(p *Proc, omr *OffloadMR) error            { return nil }

type QP struct{}

func (q *QP) PostSend(p *Proc, buf []byte, lkey uint32) error { return nil }

type arena struct{ omr *OffloadMR }

func cond() bool { return false }

// PostBeforeSync posts from the region before its host mirror is
// synced: the wire sees stale data.
func PostBeforeSync(v *Verbs, q *QP, p *Proc) error {
	omr, err := v.RegOffloadMR(p, 4096)
	if err != nil {
		return err
	}
	err = q.PostSend(p, omr.HostBuf, omr.HostMR.LKey) // want "before SyncOffloadMR"
	if err != nil {
		_ = v.DeregOffloadMR(p, omr)
		return err
	}
	return v.DeregOffloadMR(p, omr)
}

// ReadBeforeSync touches the host mirror before it is populated.
func ReadBeforeSync(v *Verbs, p *Proc) error {
	omr, err := v.RegOffloadMR(p, 4096)
	if err != nil {
		return err
	}
	first := omr.HostBuf[0] // want "before SyncOffloadMR"
	_ = first
	return v.DeregOffloadMR(p, omr)
}

// Leak registers and never deregisters on any path.
func Leak(v *Verbs, p *Proc) error {
	omr, err := v.RegOffloadMR(p, 4096) // want "offload MR from RegOffloadMR is not deregistered on every path"
	if err != nil {
		return err
	}
	return v.SyncOffloadMR(p, omr, 0, 4096)
}

// UseAfterDereg reads the region after deregistration.
func UseAfterDereg(v *Verbs, p *Proc) error {
	omr, err := v.RegOffloadMR(p, 4096)
	if err != nil {
		return err
	}
	if err := v.SyncOffloadMR(p, omr, 0, 4096); err != nil {
		_ = v.DeregOffloadMR(p, omr)
		return err
	}
	if err := v.DeregOffloadMR(p, omr); err != nil {
		return err
	}
	_ = omr.Size // want "use of offload MR after DeregOffloadMR"
	return nil
}

// DoubleDereg deregisters twice.
func DoubleDereg(v *Verbs, p *Proc) error {
	omr, err := v.RegOffloadMR(p, 4096)
	if err != nil {
		return err
	}
	if err := v.SyncOffloadMR(p, omr, 0, 4096); err != nil {
		_ = v.DeregOffloadMR(p, omr)
		return err
	}
	if err := v.DeregOffloadMR(p, omr); err != nil {
		return err
	}
	return v.DeregOffloadMR(p, omr) // want "offload MR may already be deregistered"
}

// Suppressed carries an ignore directive: no finding.
func Suppressed(v *Verbs, p *Proc) error {
	//simlint:ignore offload arena-owned region deregistered by the arena on teardown
	omr, err := v.RegOffloadMR(p, 4096)
	if err != nil {
		return err
	}
	return v.SyncOffloadMR(p, omr, 0, 4096)
}

// PaperOrder follows the full protocol, draining on every error path:
// not flagged.
func PaperOrder(v *Verbs, q *QP, p *Proc) error {
	omr, err := v.RegOffloadMR(p, 4096)
	if err != nil {
		return err
	}
	if err := v.SyncOffloadMR(p, omr, 0, 4096); err != nil {
		_ = v.DeregOffloadMR(p, omr)
		return err
	}
	if err := q.PostSend(p, omr.HostBuf, omr.HostMR.LKey); err != nil {
		_ = v.DeregOffloadMR(p, omr)
		return err
	}
	return v.DeregOffloadMR(p, omr)
}

// LoopSyncPost re-syncs before each post inside a loop: not flagged.
func LoopSyncPost(v *Verbs, q *QP, p *Proc) error {
	omr, err := v.RegOffloadMR(p, 4096)
	if err != nil {
		return err
	}
	for i := 0; i < 8; i++ {
		if err := v.SyncOffloadMR(p, omr, 0, 4096); err != nil {
			_ = v.DeregOffloadMR(p, omr)
			return err
		}
		if err := q.PostSend(p, omr.HostBuf, omr.HostMR.LKey); err != nil {
			_ = v.DeregOffloadMR(p, omr)
			return err
		}
	}
	return v.DeregOffloadMR(p, omr)
}

// EarlyReturnAfterDereg deregisters before the early return and again
// on the fall-through path: disjoint paths, no finding.
func EarlyReturnAfterDereg(v *Verbs, p *Proc) error {
	omr, err := v.RegOffloadMR(p, 4096)
	if err != nil {
		return err
	}
	if err := v.SyncOffloadMR(p, omr, 0, 4096); err != nil {
		_ = v.DeregOffloadMR(p, omr)
		return err
	}
	if cond() {
		return v.DeregOffloadMR(p, omr)
	}
	return v.DeregOffloadMR(p, omr)
}

// EscapesToArena transfers ownership to a longer-lived arena that
// deregisters on teardown: not flagged here.
func EscapesToArena(v *Verbs, p *Proc) (*arena, error) {
	omr, err := v.RegOffloadMR(p, 4096)
	if err != nil {
		return nil, err
	}
	return &arena{omr: omr}, nil
}

// ---- declared contracts ----

// syncIt advances the offload protocol behind a helper.
//
//simlint:contract offload advance
func syncIt(v *Verbs, p *Proc, omr *OffloadMR) error {
	return v.SyncOffloadMR(p, omr, 0, 64)
}

// dropOff deregisters an offload MR behind a helper.
//
//simlint:contract offload release
func dropOff(v *Verbs, p *Proc, omr *OffloadMR) { _ = v.DeregOffloadMR(p, omr) }

// HelperSyncAndDropOK: sync and dereg both live behind helpers.
func HelperSyncAndDropOK(v *Verbs, q *QP, p *Proc) {
	omr, err := v.RegOffloadMR(p, 4096)
	if err != nil {
		return
	}
	if err := syncIt(v, p, omr); err != nil {
		dropOff(v, p, omr)
		return
	}
	_ = q.PostSend(p, omr.HostBuf, omr.HostMR.LKey)
	dropOff(v, p, omr)
}

// HelperDropMissing leaks the offload MR: syncIt only advances.
func HelperDropMissing(v *Verbs, q *QP, p *Proc) {
	omr, err := v.RegOffloadMR(p, 4096) // want "offload MR from RegOffloadMR is not deregistered on every path"
	if err != nil {
		return
	}
	_ = syncIt(v, p, omr)
	_ = q.PostSend(p, omr.HostBuf, omr.HostMR.LKey)
}
