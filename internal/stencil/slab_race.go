//go:build race

package stencil

import "repro/internal/machine"

// slabGrid returns one of a slab's two grids. Under the race detector it
// is Go heap (Domain.Alloc): the detector watches only the heap and data
// segments, so a reserved grid would hide the cells omp.Execute's
// goroutines write side by side.
func slabGrid(dom *machine.Domain, n int) *machine.Buffer { return dom.Alloc(n) }
