package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/ib"
)

// LeakError reports a resource a run ended holding with nobody left to
// release it (DESIGN.md §7d). Either rank Rank exited still owing
// something — a request Isend or Irecv returned that no Wait, WaitAll,
// Waitany or true Test saw complete, an MR-cache pin, offload staging
// bytes — or, with Rank -1, adapter LID holds registrations that
// neither the world's start nor its ranks account for.
type LeakError struct {
	Rank     int
	Requests int           // open requests
	Pins     int           // pinned MR-cache entries
	Staged   int           // offload arena bytes in use
	Open     []OpenRequest // up to four of the open requests (heldOpen)

	LID        uint16
	Live, Want int // the adapter's registrations, and the world's account of them
}

// OpenRequest names an open request in a LeakError.
type OpenRequest struct {
	Op    string // "send" or "recv"
	Peer  int    // destination, or source (AnySource until bound)
	Tag   int
	State string
}

func (e *LeakError) Error() string {
	if e.Rank < 0 {
		return fmt.Sprintf("core: HCA lid %d holds %d memory registrations, the world accounts for %d", e.LID, e.Live, e.Want)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "core: rank %d exited holding %d open requests, %d MR-cache pins, %d offload staging bytes", e.Rank, e.Requests, e.Pins, e.Staged)
	for _, q := range e.Open {
		fmt.Fprintf(&b, "; %s peer %d tag %d %s", q.Op, q.Peer, q.Tag, q.State)
	}
	return b.String()
}

// leaked is the check a rank's exit must pass: no open request, no
// cache pin, no staged offload bytes. It only reads state.
func (r *Rank) leaked() error {
	staged := 0
	if r.arena != nil {
		staged = r.arena.inUse
	}
	pins := r.mrCache.Pinned()
	if r.unwaited == 0 && pins == 0 && staged == 0 {
		return nil
	}
	return &LeakError{Rank: r.id, Requests: r.unwaited, Pins: pins, Staged: staged, Open: r.heldOpen()}
}

// heldOpen names, in (peer, tag) order, up to four open requests the
// rank's protocol state still holds: posted and deferred receives,
// sends waiting for credit or a handshake, work requests in flight. One
// that already completed is held by its caller alone, so it is in the
// count but not named.
func (r *Rank) heldOpen() []OpenRequest {
	var held []OpenRequest
	add := func(q *Request) {
		if q != nil && q.open {
			op := "recv"
			if q.isSend {
				op = "send"
			}
			held = append(held, OpenRequest{Op: op, Peer: int(q.peer), Tag: int(q.tag), State: stateNames[q.state]})
		}
	}
	add(r.anyActive)
	for i := 0; i < r.deferred.Len(); i++ {
		add(r.deferred.At(i))
	}
	for _, w := range r.wrMap {
		add(w.req)
	}
	for _, ps := range slices.Concat([]*peerState{r.self}, r.pairs) {
		for _, q := range ps.expRecv {
			add(q)
		}
		for _, q := range ps.sendsBySeq {
			add(q)
		}
		for i := 0; i < ps.pendingSends.Len(); i++ {
			add(ps.pendingSends.At(i))
		}
	}
	slices.SortFunc(held, func(a, b OpenRequest) int {
		return cmp.Or(cmp.Compare(a.Peer, b.Peer), cmp.Compare(a.Tag, b.Tag), strings.Compare(a.Op, b.Op), strings.Compare(a.State, b.State))
	})
	held = slices.Compact(held)
	return held[:min(len(held), 4)]
}

// registrations counts the regions rank r still owns: a ring per
// published pair half, the packet slot, the cache's entries, and the
// offload arena's host region.
func (r *Rank) registrations() int {
	n := len(r.pairs)
	if r.slotMR != nil {
		n++
	}
	if r.mrCache != nil {
		n += r.mrCache.Len()
	}
	if r.arena != nil {
		n++
	}
	return n
}

// adapters lists, in rank order, the adapters the world's ranks use and
// how many registrations each held before the world ran.
func (w *World) adapters() (hcas []*ib.HCA, base []int) {
	for _, r := range w.ranks {
		if h := r.v.HCA(); !slices.Contains(hcas, h) {
			hcas = append(hcas, h)
			base = append(base, h.LiveMRs())
		}
	}
	return hcas, base
}

// unowned checks each adapter's ledger once the world has run: it must
// hold what it held before, plus what the ranks on it still own.
func (w *World) unowned(hcas []*ib.HCA, base []int) error {
	want := slices.Clone(base)
	for _, r := range w.ranks {
		want[slices.Index(hcas, r.v.HCA())] += r.registrations()
	}
	for i, h := range hcas {
		if live := h.LiveMRs(); live != want[i] {
			return &LeakError{Rank: -1, LID: h.LID, Live: live, Want: want[i]}
		}
	}
	return nil
}
