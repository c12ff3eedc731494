package machine

import "syscall"

// DiscardReserved declares the bytes of every buffer d has reserved dead
// for good: their pages go back to the kernel now instead of when d is
// collected (a collection a program that allocates little may never
// run), and read zero until written again. The buffers stay allocated
// and resolvable; heap buffers are left as they are. A failure leaves
// the bytes resident, which only costs memory, so it is not reported.
func (d *Domain) DiscardReserved() {
	if d.reserved == nil {
		return
	}
	for _, m := range d.reserved.maps {
		_ = syscall.Madvise(m, syscall.MADV_DONTNEED)
	}
}
