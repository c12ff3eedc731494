//go:build race

package stencil

import "repro/internal/machine"

// slabGrid returns one of a slab's two buffers, its grid or its second
// buffer. Under the race detector it is Go heap (Domain.Alloc): the
// detector watches only the heap and data segments, so a reserved buffer
// would hide the cells and scratch rows omp.Execute's goroutines write
// side by side.
func slabGrid(dom *machine.Domain, n int) *machine.Buffer { return dom.Alloc(n) }
