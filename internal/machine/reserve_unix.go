//go:build unix

package machine

import (
	"runtime"
	"syscall"
)

// Reserve is Alloc for world-lifetime buffers that are written sparsely:
// eager rings, packet slots, stencil slabs and the offload arena.
// Address, length, accounting, Resolve and Free are exactly Alloc's, and
// Data reads all zero, but the bytes come from an anonymous private
// mapping: the kernel backs a page only when it is first written, and
// none of it is Go heap. Each call makes its own mapping; the kernel
// merges adjacent anonymous mappings, so many calls do not add as many
// entries to the process's map (vm.max_map_count). A request smaller
// than a page is Alloc: a mapping of its own would back a whole page
// where the heap packs several such buffers. The mappings are unmapped
// when the Domain becomes unreachable, not on Free; DiscardReserved gives
// their pages back sooner. If the kernel
// refuses the mapping, Reserve falls back to Alloc; nothing simulated
// can tell the two apart.
func (d *Domain) Reserve(n int) *Buffer {
	if n < pageSize {
		return d.Alloc(n)
	}
	data, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return d.Alloc(n)
	}
	if d.reserved == nil {
		d.reserved = &reservations{}
		// The finalizer runs on the runtime's finalizer goroutine, after
		// the last simulated access to this Domain; it touches only the
		// mappings.
		runtime.SetFinalizer(d.reserved, (*reservations).unmap)
	}
	d.reserved.maps = append(d.reserved.maps, data)
	return d.place(data)
}

func (r *reservations) unmap() {
	for _, m := range r.maps {
		// Each m is a whole mapping Mmap returned, unmapped once; a
		// finalizer has no caller to report a failure to.
		_ = syscall.Munmap(m)
	}
	r.maps = nil
}
