package stencil

// useAVX2 turns on jacobiRowVec's assembly kernel: true when the CPU has
// AVX2 and the OS saves the YMM registers across context switches. It is
// set once, here; TestJacobiRowsMatchesIndexForm turns it off to run the
// scalar loop alone.
var useAVX2 = hasAVX2()

// jacobiRowVec computes jacobiRows's update of out from its four
// neighbour rows for the longest prefix of out whose length is a multiple
// of 4, four cells per instruction, and returns that length; jacobiRows
// does the rest. Each lane does the scalar loop's three adds and one
// multiply, in its order and with its operands first, so the bits are
// the scalar loop's (DESIGN.md "The stencil has one kernel"). It panics
// if an input is shorter than out, as the scalar loop would.
func jacobiRowVec(out, up, dn, left, right []float64) int {
	if !useAVX2 || len(out) < 4 {
		return 0
	}
	n := len(out)
	_, _, _, _ = up[n-1], dn[n-1], left[n-1], right[n-1]
	return jacobiRowAVX2(out, up, dn, left, right)
}

// jacobiRowAVX2 is jacobiRowVec's prefix, in jacobi_amd64.s.
//
//go:noescape
func jacobiRowAVX2(out, up, dn, left, right []float64) int

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low word of extended control register 0, the
// register state the OS saves.
func xgetbv0() uint32

// hasAVX2 reports whether the CPU has AVX2 (CPUID leaf 7, EBX bit 5) and
// AVX with OSXSAVE (leaf 1, ECX bits 28 and 27), and XCR0 says the OS
// saves both XMM and YMM state (bits 1 and 2).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}
