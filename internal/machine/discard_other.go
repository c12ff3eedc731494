//go:build !linux

package machine

// DiscardReserved keeps the pages: without madvise(MADV_DONTNEED), the
// memory of d's reserved buffers goes back when d is collected.
func (d *Domain) DiscardReserved() {}
