//go:build !amd64

package stencil

// useAVX2 is false: only amd64 has a vector kernel.
var useAVX2 = false

func jacobiRowVec(out, up, dn, left, right []float64) int { return 0 }
