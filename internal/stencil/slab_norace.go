//go:build !race

package stencil

import "repro/internal/machine"

// slabGrid returns one of a slab's two buffers, its grid or its second
// buffer. They live as long as the world, so they are reserved
// (Domain.Reserve): backed only where written, and reading zero.
func slabGrid(dom *machine.Domain, n int) *machine.Buffer { return dom.Reserve(n) }
