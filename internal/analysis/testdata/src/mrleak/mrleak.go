// Package mrleak seeds memory-region lifecycle violations on a local
// stand-in for the dcfa verbs: registrations that never reach DeregMR,
// double deregistration, and use after dereg, plus the loop and
// early-return shapes the rule must not flag.
package mrleak

type Proc struct{}

type MR struct {
	LKey uint32
	Addr uint64
}

type PD struct{}

type Verbs struct{}

func (v *Verbs) RegMR(p *Proc, pd *PD, addr uint64, n int) (*MR, error) { return &MR{}, nil }
func (v *Verbs) RegMRBuffer(p *Proc, pd *PD, b []byte) (*MR, error)     { return &MR{}, nil }
func (v *Verbs) DeregMR(p *Proc, mr *MR) error                          { return nil }

type holder struct{ mr *MR }

func cond() bool    { return false }
func sink(k uint32) {}

// handoff really takes ownership: the region is stored where another
// owner will deregister it. It declares no contract, so a call to it
// escapes the region.
var handoffSink holder

func handoff(mr *MR) { handoffSink.mr = mr }

// LeakPlain registers and falls off the end without deregistering.
// Reading mr.LKey is a field projection, not an ownership transfer.
func LeakPlain(v *Verbs, p *Proc, pd *PD) {
	mr, err := v.RegMR(p, pd, 0x1000, 64) // want "memory region from RegMR is not deregistered on every path"
	if err != nil {
		return
	}
	sink(mr.LKey)
}

// LeakOnEarlyReturn deregisters on the main path but leaks on the
// early return.
func LeakOnEarlyReturn(v *Verbs, p *Proc, pd *PD) error {
	mr, err := v.RegMRBuffer(p, pd, make([]byte, 64)) // want "memory region from RegMRBuffer is not deregistered on every path"
	if err != nil {
		return err
	}
	if cond() {
		return nil // leaks mr
	}
	return v.DeregMR(p, mr)
}

// DoubleFree deregisters the same region twice.
func DoubleFree(v *Verbs, p *Proc, pd *PD) {
	mr, err := v.RegMR(p, pd, 0x2000, 64)
	if err != nil {
		return
	}
	if err := v.DeregMR(p, mr); err != nil {
		return
	}
	_ = v.DeregMR(p, mr) // want "memory region may already be deregistered"
}

// UseAfterDereg reads the region after deregistering it.
func UseAfterDereg(v *Verbs, p *Proc, pd *PD) {
	mr, err := v.RegMR(p, pd, 0x3000, 64)
	if err != nil {
		return
	}
	if err := v.DeregMR(p, mr); err != nil {
		return
	}
	sink(mr.LKey) // want "use of memory region after DeregMR"
}

// Discarded throws the registration away: it can never be freed.
func Discarded(v *Verbs, p *Proc, pd *PD) {
	_, err := v.RegMR(p, pd, 0x4000, 64) // want "result of RegMR discarded"
	_ = err
}

// Suppressed carries an ignore directive: no finding.
func Suppressed(v *Verbs, p *Proc, pd *PD) {
	//simlint:ignore mrleak region intentionally pinned for the process lifetime
	mr, err := v.RegMR(p, pd, 0x5000, 64)
	if err != nil {
		return
	}
	sink(mr.LKey)
}

// Balanced deregisters on every path: not flagged.
func Balanced(v *Verbs, p *Proc, pd *PD) error {
	mr, err := v.RegMR(p, pd, 0x6000, 64)
	if err != nil {
		return err
	}
	sink(mr.LKey)
	return v.DeregMR(p, mr)
}

// DeferredDereg releases via defer: not flagged.
func DeferredDereg(v *Verbs, p *Proc, pd *PD) error {
	mr, err := v.RegMR(p, pd, 0x7000, 64)
	if err != nil {
		return err
	}
	defer v.DeregMR(p, mr)
	sink(mr.LKey)
	if cond() {
		return nil
	}
	sink(uint32(mr.Addr))
	return nil
}

// LoopReregistration registers and deregisters fresh each iteration:
// the back edge must not smear last iteration's release into this
// iteration's registration.
func LoopReregistration(v *Verbs, p *Proc, pd *PD) error {
	for i := 0; i < 8; i++ {
		mr, err := v.RegMR(p, pd, uint64(i)*0x1000, 64)
		if err != nil {
			return err
		}
		sink(mr.LKey)
		if err := v.DeregMR(p, mr); err != nil {
			return err
		}
	}
	return nil
}

// EarlyReturnAfterRelease releases before the early return and again
// on the fall-through: the paths are disjoint, so neither is a double
// free and neither leaks.
func EarlyReturnAfterRelease(v *Verbs, p *Proc, pd *PD) error {
	mr, err := v.RegMR(p, pd, 0x8000, 64)
	if err != nil {
		return err
	}
	if cond() {
		return v.DeregMR(p, mr)
	}
	sink(mr.LKey)
	return v.DeregMR(p, mr)
}

// EscapesToStruct transfers ownership into a longer-lived holder: the
// function no longer owes the dereg.
func EscapesToStruct(v *Verbs, p *Proc, pd *PD) (*holder, error) {
	mr, err := v.RegMR(p, pd, 0x9000, 64)
	if err != nil {
		return nil, err
	}
	return &holder{mr: mr}, nil
}

// EscapesByReturn hands the region to the caller.
func EscapesByReturn(v *Verbs, p *Proc, pd *PD) (*MR, error) {
	mr, err := v.RegMR(p, pd, 0xa000, 64)
	if err != nil {
		return nil, err
	}
	return mr, nil
}

// EscapesByCall passes the handle itself to another owner.
func EscapesByCall(v *Verbs, p *Proc, pd *PD) {
	mr, err := v.RegMR(p, pd, 0xb000, 64)
	if err != nil {
		return
	}
	handoff(mr)
}

// ---- declared contracts ----
//
// A //simlint:contract directive is the only way an obligation crosses
// a function boundary: nothing is inferred from a helper's body, and a
// call to an un-annotated function (handoff above) escapes its tracked
// arguments.

// newMR is a constructor: its result carries the dereg obligation out.
//
//simlint:contract mrleak acquire the caller owes the dereg
func newMR(v *Verbs, p *Proc, pd *PD) (*MR, error) {
	return v.RegMR(p, pd, 0xc000, 64)
}

// closeMR releases its region on every path.
//
//simlint:contract mrleak release
func closeMR(v *Verbs, p *Proc, mr *MR) { _ = v.DeregMR(p, mr) }

// peek only reads a field: the caller keeps the dereg obligation.
//
//simlint:contract mrleak borrow
func peek(mr *MR) uint32 { return mr.LKey }

// pass returns its parameter: the caller's binding flows through.
//
//simlint:contract mrleak pass
func pass(mr *MR) *MR { return mr }

// HelperReleaseOK: the dereg lives in closeMR; no leak.
func HelperReleaseOK(v *Verbs, p *Proc, pd *PD) {
	mr, err := v.RegMR(p, pd, 0xc100, 64)
	if err != nil {
		return
	}
	closeMR(v, p, mr)
}

// BorrowDoesNotDischarge: peek only borrows, so falling off the end
// still leaks. Without the directive the call would take the region
// with it and the leak would be lost.
func BorrowDoesNotDischarge(v *Verbs, p *Proc, pd *PD) uint32 {
	mr, err := v.RegMR(p, pd, 0xc200, 64) // want "memory region from RegMR is not deregistered on every path"
	if err != nil {
		return 0
	}
	return peek(mr)
}

// ConstructorLeak: the obligation newMR declares lands on the caller's
// binding.
func ConstructorLeak(v *Verbs, p *Proc, pd *PD) {
	mr, err := newMR(v, p, pd) // want "memory region from newMR is not deregistered on every path"
	if err != nil {
		return
	}
	_ = peek(mr)
}

// ConstructorClosedOK: declared acquire and declared release balance.
func ConstructorClosedOK(v *Verbs, p *Proc, pd *PD) {
	mr, err := newMR(v, p, pd)
	if err != nil {
		return
	}
	closeMR(v, p, mr)
}

// ConstructorDiscard: dropping a constructor's result can never be
// deregistered.
func ConstructorDiscard(v *Verbs, p *Proc, pd *PD) {
	_, _ = newMR(v, p, pd) // want "result of newMR discarded"
}

// DeferredHelperCleanupOK: a deferred annotated releaser counts on
// every exit path.
func DeferredHelperCleanupOK(v *Verbs, p *Proc, pd *PD, early bool) {
	mr, err := newMR(v, p, pd)
	if err != nil {
		return
	}
	defer closeMR(v, p, mr)
	if early {
		return
	}
	_ = peek(mr)
}

// PassThroughOK: the wrapper hands the same region back; releasing the
// copy releases the original binding's site.
func PassThroughOK(v *Verbs, p *Proc, pd *PD) {
	mr, err := v.RegMR(p, pd, 0xc300, 64)
	if err != nil {
		return
	}
	mr2 := pass(mr)
	closeMR(v, p, mr2)
}

// PassThroughLeak: the alias does not discharge anything.
func PassThroughLeak(v *Verbs, p *Proc, pd *PD) {
	mr, err := v.RegMR(p, pd, 0xc400, 64) // want "memory region from RegMR is not deregistered on every path"
	if err != nil {
		return
	}
	mr2 := pass(mr)
	_ = peek(mr2)
}

// PassThroughReturnOK: returning the wrapper's result hands the region
// to the caller — exactly as quiet as `return mr` would be.
func PassThroughReturnOK(v *Verbs, p *Proc, pd *PD) *MR {
	mr, err := v.RegMR(p, pd, 0xc500, 64)
	if err != nil {
		return nil
	}
	return pass(mr)
}

// DoubleHelperRelease: the helper's release is declared, so releasing
// before it is a double dereg.
func DoubleHelperRelease(v *Verbs, p *Proc, pd *PD) {
	mr, err := v.RegMR(p, pd, 0xc600, 64)
	if err != nil {
		return
	}
	_ = v.DeregMR(p, mr)
	closeMR(v, p, mr) // want "memory region may already be deregistered"
}

// UseAfterHelperRelease: so is reading the region after it.
func UseAfterHelperRelease(v *Verbs, p *Proc, pd *PD) {
	mr, err := v.RegMR(p, pd, 0xc700, 64)
	if err != nil {
		return
	}
	closeMR(v, p, mr)
	sink(mr.LKey) // want "use of memory region after DeregMR"
}

// Registrar has no implementation anywhere in this package: contracts
// declared on the interface methods alone make calls through it
// checkable, and a call through the interface resolves to them
// directly.
type Registrar interface {
	//simlint:contract mrleak acquire fresh registration the caller must free
	Acquire(p *Proc, n int) (*MR, error)
	//simlint:contract mrleak release
	Free(p *Proc, mr *MR)
	//simlint:contract mrleak borrow
	Inspect(p *Proc, mr *MR) uint32
	//simlint:contract mrleak pass
	Identity(mr *MR) *MR
}

// RegistrarLeak: the declared borrow keeps Inspect from escaping the
// region, so the missing Free is still reportable.
func RegistrarLeak(rg Registrar, p *Proc) {
	mr, err := rg.Acquire(p, 64) // want "memory region from Acquire is not deregistered on every path"
	if err != nil {
		return
	}
	_ = rg.Inspect(p, mr)
}

// RegistrarBalancedOK: declared acquire and release cancel out.
func RegistrarBalancedOK(rg Registrar, p *Proc) {
	mr, err := rg.Acquire(p, 64)
	if err != nil {
		return
	}
	rg.Free(p, mr)
}

// RegistrarPassOK: the declared pass hands the same region through, so
// releasing the wrapper's result releases the original binding.
func RegistrarPassOK(rg Registrar, p *Proc) {
	mr, err := rg.Acquire(p, 64)
	if err != nil {
		return
	}
	mr2 := rg.Identity(mr)
	rg.Free(p, mr2)
}

// RegistrarDoubleFree: the declared release makes the second Free a
// double discharge.
func RegistrarDoubleFree(rg Registrar, p *Proc) {
	mr, err := rg.Acquire(p, 64)
	if err != nil {
		return
	}
	rg.Free(p, mr)
	rg.Free(p, mr) // want "memory region may already be deregistered"
}
