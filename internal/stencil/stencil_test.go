package stencil

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// runMode runs pr in mode m on a fresh cluster of the size the mode
// fills with pr.Procs ranks.
func runMode(plat *perfmodel.Platform, m cluster.Mode, pr Params) (Result, error) {
	return Run(cluster.New(plat, m.Nodes(pr.Procs)), m, pr)
}

// smallParams keeps the real math cheap in tests. Its 8 sweeps move the
// heat front 8 rows, so at 8 or fewer ranks every halo it exchanges is
// zero.
func smallParams(procs, threads int) Params {
	return Params{N: 64, Iters: 8, Procs: procs, Threads: threads}
}

// crossingParams is smallParams run for 400 sweeps: the heat front
// crosses every rank boundary, so a halo row that arrives wrong, late or
// not at all changes the checksum.
func crossingParams(procs, threads int) Params {
	return Params{N: 64, Iters: 400, Procs: procs, Threads: threads}
}

// jacobiIndexForm is the kernel as first written, indexing the whole
// slab with i±w and i±1: the oracle for jacobiRows's association order.
func jacobiIndexForm(next, cur []float64, w, lo, hi int) {
	for r := lo; r < hi; r++ {
		row := (r + 1) * w
		for c := 1; c < w-1; c++ {
			i := row + c
			next[i] = 0.25 * (cur[i-w] + cur[i+w] + cur[i-1] + cur[i+1])
		}
	}
}

// seedSpecial sets each cell of g to +0, −0.0, a normal value, a
// subnormal value, ±Inf or NaN, mostly zeros and subnormals, so that
// most sums are tiny and some are Inf or NaN. A NaN has a random sign and
// payload: the sum of two NaNs is the first operand's, so a kernel that
// swaps two operands gives other bits.
func seedSpecial(rng *rand.Rand, g []float64) {
	for i := range g {
		switch k := rng.Intn(40); {
		case k < 10:
			g[i] = 0
		case k < 14:
			g[i] = math.Copysign(0, -1)
		case k < 18:
			g[i] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(81)-40)
		case k < 37:
			g[i] = math.Float64frombits(rng.Uint64() & (signBit | 1<<52 - 1))
		case k < 39:
			g[i] = math.Inf(1 - 2*rng.Intn(2))
		default:
			g[i] = math.Float64frombits(rng.Uint64() | 0x7ff8<<48)
		}
	}
}

func TestJacobiRowsMatchesIndexForm(t *testing.T) {
	// jacobiRows is checked as the CPU runs it (logged), and again with
	// its vector prefix turned off, so each of its two loops is checked
	// on every row length.
	vec := useAVX2
	t.Cleanup(func() { useAVX2 = vec })
	t.Logf("vector prefix on this CPU: %v", vec)
	paths := []string{"scalar"}
	if vec {
		paths = []string{"vector", "scalar"}
	}
	for _, path := range paths {
		t.Run(path, func(t *testing.T) {
			useAVX2 = path == "vector"
			checkJacobiRowsMatchIndexForm(t)
		})
	}
}

func checkJacobiRowsMatchIndexForm(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	const rows = 9
	kernels := []struct {
		name string
		run  func(next, cur []float64, w, lo, hi int) bool
	}{
		{"fast", func(next, cur []float64, w, lo, hi int) bool { jacobiRows(next, cur, w, lo, hi); return false }},
		{"careful", jacobiRowsCareful},
	}
	slabs := []struct {
		name string
		seed func(g []float64)
		tiny bool // some sum is tiny
	}{
		// Magnitudes spread over 2^±40 so a reassociated sum rounds
		// differently.
		{"spread", func(g []float64) {
			for i := range g {
				g[i] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(81)-40)
			}
		}, false},
		{"special", func(g []float64) { seedSpecial(rng, g) }, true},
	}
	// Interiors of 1, 2, 3, 4, 7, 8, 65 and 1280 cells: a vector prefix
	// of none, one, two and many vectors, and every tail length 0 to 3.
	for _, w := range []int{3, 4, 5, 6, 9, 10, 67, 1282} {
		for _, s := range slabs {
			cur := make([]float64, (rows+2)*w)
			s.seed(cur)
			for _, k := range kernels {
				// The whole slab, and the chunks omp.Execute makes for 2, 3
				// and 4 workers.
				for _, workers := range []int{1, 2, 3, 4} {
					// Both outputs start from the same noise, so a cell either
					// kernel should leave alone is compared too.
					got := make([]float64, len(cur))
					for i := range got {
						got[i] = rng.NormFloat64()
					}
					want := append([]float64(nil), got...)
					chunk := (rows + workers - 1) / workers
					tiny := false
					for lo := 0; lo < rows; lo += chunk {
						hi := min(lo+chunk, rows)
						tiny = k.run(got, cur, w, lo, hi) || tiny
						jacobiIndexForm(want, cur, w, lo, hi)
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s kernel, %s slab, w=%d, %d chunks: cell (%d,%d) = %v (%#x), index form %v (%#x)",
								k.name, s.name, w, workers, i/w, i%w, got[i], math.Float64bits(got[i]),
								want[i], math.Float64bits(want[i]))
						}
					}
					if k.name == "careful" && tiny != s.tiny {
						t.Fatalf("careful kernel, %s slab, w=%d, %d chunks: reported a tiny sum %v, want %v",
							s.name, w, workers, tiny, s.tiny)
					}
				}
			}
		}
	}
}

func TestCrossingChecksumPinned(t *testing.T) {
	// Every other checksum test compares a distributed run with
	// Reference, and both compute most rows with jacobiRows, so a change
	// to that loop's arithmetic passes them all. These bits were recorded
	// from the index-form kernel. The checksum alone is not enough: a sum
	// of 4096 cells rounds away last-bit differences in any one of them,
	// and it did not move when the kernel was reassociated. So the
	// reference grid's bits are pinned too. This grid holds no subnormal
	// cell; TestSubnormalBandMatchesReference pins the careful loop.
	const (
		wantSum  = 0x4081f3325db58266 // 574.399592798273
		wantGrid = 0x54767c3362035e17 // FNV-1a over the cells' bits
	)
	pr := crossingParams(8, 2)
	res, err := RunDCFA(perfmodel.Default(), pr, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64bits(res.Checksum); got != wantSum {
		t.Fatalf("checksum %v (bits %#x), pinned bits %#x", res.Checksum, got, uint64(wantSum))
	}
	ref := Reference(pr)
	if sum := ReferenceChecksum(ref, pr); sum != res.Checksum {
		t.Fatalf("reference %v, distributed %v", sum, res.Checksum)
	}
	if got := gridDigest(ref); got != wantGrid {
		t.Fatalf("reference grid digest %#x, pinned %#x", got, uint64(wantGrid))
	}
}

// gridDigest is FNV-1a over the bits of g's cells.
func gridDigest(g []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range g {
		h.Write(binary.LittleEndian.AppendUint64(b[:0], math.Float64bits(v)))
	}
	return h.Sum64()
}

// seedBand sets every cell of g to a random subnormal value. Sweeps only
// average cells, so they stay below 2^-1022 and every sum stays tiny:
// the regime of the band at the heat front.
func seedBand(g []float64) {
	rng := rand.New(rand.NewSource(31))
	for i := range g {
		g[i] = math.Float64frombits(1 + rng.Uint64()%(1<<52-1))
	}
}

// BenchmarkJacobiSweep sweeps the slab one stencil_8x56 rank owns
// (160 rows of the paper's 1282-wide grid) in one call of the fast loop:
// normal with every cell 1, band with every cell subnormal (seedBand),
// where the multiply is slow. Both slabs, 3.3 MB, stay in a 2 MiB L2
// only in part. eight-slabs is what a stencil_8x56 rep sweeps: all
// eight ranks' slabs, 26.6 MB with every cell 1, op i sweeping slab
// i mod 8, so a slab is back in the loop only after the other seven
// have pushed it out of cache.
func BenchmarkJacobiSweep(b *testing.B) {
	pr := PaperParams(8, 56)
	w, rows := pr.Width(), pr.N/pr.Procs
	ones := func(g []float64) {
		for i := range g {
			g[i] = 1
		}
	}
	for _, bc := range []struct {
		name string
		seed func(g []float64)
	}{
		{"normal", ones},
		{"band", seedBand},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cur := make([]float64, (rows+2)*w)
			next := make([]float64, len(cur))
			bc.seed(cur)
			copy(next, cur)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				jacobiRows(next, cur, w, 0, rows)
				cur, next = next, cur
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*pr.N), "ns/point")
		})
	}
	b.Run("eight-slabs", func(b *testing.B) {
		cur, next := make([][]float64, pr.Procs), make([][]float64, pr.Procs)
		for k := range cur {
			cur[k], next[k] = make([]float64, (rows+2)*w), make([]float64, (rows+2)*w)
			ones(cur[k])
			ones(next[k])
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % pr.Procs
			jacobiRows(next[k], cur[k], w, 0, rows)
			cur[k], next[k] = next[k], cur[k]
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*pr.N), "ns/point")
	})
}

func TestReferenceConvergesTowardBoundary(t *testing.T) {
	pr := smallParams(1, 1)
	g := Reference(pr)
	w := pr.Width()
	// After a few sweeps, heat from the top boundary must have diffused
	// into the first interior row and remain bounded by the boundary.
	if g[1*w+w/2] <= 0 || g[1*w+w/2] >= 1 {
		t.Fatalf("first interior row value %v out of (0,1)", g[1*w+w/2])
	}
	// Bottom interior row should still be nearly zero after 8 sweeps.
	if g[pr.N*w+w/2] != 0 {
		t.Fatalf("heat reached the far row too fast: %v", g[pr.N*w+w/2])
	}
}

func TestDCFAMatchesReferenceBitExact(t *testing.T) {
	// smallParams exchanges only zeros: 8 sweeps move the heat front 8
	// rows, short of the first rank boundary. The 16-row grid on 8 ranks
	// has 2 rows a rank and 24 sweeps, so the front crosses every
	// boundary and a halo row that is not exchanged changes the sum.
	crossing := Params{N: 16, Iters: 24, Procs: 8, Threads: 2}
	for _, tc := range []struct {
		pr      Params
		offload bool
	}{
		{smallParams(1, 4), true},
		{smallParams(2, 4), true},
		{smallParams(4, 4), true},
		{crossing, true},
		{crossing, false},
	} {
		res, err := RunDCFA(perfmodel.Default(), tc.pr, tc.offload)
		if err != nil {
			t.Fatalf("%+v offload=%v: %v", tc.pr, tc.offload, err)
		}
		want := ReferenceChecksum(Reference(tc.pr), tc.pr)
		if res.Checksum != want {
			t.Fatalf("%+v offload=%v: checksum %v, reference %v", tc.pr, tc.offload, res.Checksum, want)
		}
	}
}

func TestModesMatchReference(t *testing.T) {
	for _, tc := range []struct {
		m   cluster.Mode
		prs []Params
	}{
		{cluster.ModeHost, []Params{smallParams(4, 2), crossingParams(8, 2)}},
		{cluster.ModeIntelPhi, []Params{smallParams(4, 2), crossingParams(8, 2)}},
		{cluster.ModeHostOffload, []Params{
			smallParams(1, 2), smallParams(2, 2), smallParams(4, 2),
			crossingParams(2, 2), crossingParams(8, 2),
		}},
		{cluster.ModeSymmetric, []Params{smallParams(4, 2), crossingParams(8, 2)}},
	} {
		t.Run(tc.m.String(), func(t *testing.T) {
			for _, pr := range tc.prs {
				res, err := runMode(perfmodel.Default(), tc.m, pr)
				if err != nil {
					t.Fatalf("%+v: %v", pr, err)
				}
				want := ReferenceChecksum(Reference(pr), pr)
				if res.Checksum != want {
					t.Fatalf("%+v: checksum %v, reference %v", pr, res.Checksum, want)
				}
			}
		})
	}
}

func TestSerialMatchesReference(t *testing.T) {
	pr := smallParams(1, 1)
	res, err := RunSerial(perfmodel.Default(), pr)
	if err != nil {
		t.Fatal(err)
	}
	want := ReferenceChecksum(Reference(pr), pr)
	if res.Checksum != want {
		t.Fatalf("checksum %v, reference %v", res.Checksum, want)
	}
}

func TestTableIIISizes(t *testing.T) {
	pr := PaperParams(8, 56)
	// "Problem Size 1282*1282", "Computing Data 12Mbytes",
	// "MPI Communication Data ... 10Kbytes".
	if pr.Width() != 1282 {
		t.Fatalf("width %d, want 1282", pr.Width())
	}
	if mb := float64(pr.ComputeBytes()) / (1 << 20); mb < 12 || mb > 13 {
		t.Fatalf("computing data %.1f MiB, want ≈12", mb)
	}
	if kb := float64(pr.HaloBytes()) / 1024; kb < 9.5 || kb > 10.5 {
		t.Fatalf("halo %.1f KiB, want ≈10", kb)
	}
}

func TestValidateRejectsBadDecomposition(t *testing.T) {
	if err := (Params{N: 10, Iters: 1, Procs: 3, Threads: 1}).Validate(); err == nil {
		t.Fatal("3 does not divide 10 but Validate passed")
	}
	if err := (Params{N: 0, Iters: 1, Procs: 1, Threads: 1}).Validate(); err == nil {
		t.Fatal("zero N passed")
	}
}

func TestMoreProcsReduceTime(t *testing.T) {
	plat := perfmodel.Default()
	var prev sim.Duration = math.MaxInt64
	for _, procs := range []int{1, 2, 4, 8} {
		pr := PaperParams(procs, 16)
		pr.SkipCompute = true
		res, err := RunDCFA(plat, pr, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Total >= prev {
			t.Fatalf("procs=%d total %v not below previous %v", procs, res.Total, prev)
		}
		prev = res.Total
	}
}

func TestMoreThreadsReduceTime(t *testing.T) {
	plat := perfmodel.Default()
	var prev sim.Duration = math.MaxInt64
	for _, threads := range []int{1, 4, 16, 56} {
		pr := PaperParams(4, threads)
		pr.SkipCompute = true
		res, err := RunDCFA(plat, pr, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Total >= prev {
			t.Fatalf("threads=%d total %v not below previous %v", threads, res.Total, prev)
		}
		prev = res.Total
	}
}

func TestFigure12SpeedupsAt8x56(t *testing.T) {
	plat := perfmodel.Default()
	base := Params{N: 1280, Iters: 10, Procs: 1, Threads: 1, SkipCompute: true}
	serial, err := RunSerial(plat, base)
	if err != nil {
		t.Fatal(err)
	}
	run := func(f func() (Result, error)) float64 {
		res, err := f()
		if err != nil {
			t.Fatal(err)
		}
		return float64(serial.Total) / float64(res.Total)
	}
	pr := Params{N: 1280, Iters: 10, Procs: 8, Threads: 56, SkipCompute: true}
	dcfa := run(func() (Result, error) { return RunDCFA(plat, pr, true) })
	phi := run(func() (Result, error) { return runMode(plat, cluster.ModeIntelPhi, pr) })
	host := run(func() (Result, error) { return runMode(plat, cluster.ModeHostOffload, pr) })
	// Paper: 117×, 113× and 74×. Accept ±15%.
	check := func(name string, got, want float64) {
		if got < want*0.85 || got > want*1.15 {
			t.Errorf("%s speedup %.1f×, paper reports %.0f× (±15%%)", name, got, want)
		}
	}
	check("DCFA-MPI", dcfa, 117)
	check("Intel-on-Phi", phi, 113)
	check("Host+offload", host, 74)
	if !(dcfa > phi && phi > host) {
		t.Errorf("ordering violated: dcfa=%.1f phi=%.1f host=%.1f", dcfa, phi, host)
	}
}

// Property: the distributed checksum equals the reference for random
// small configurations.
func TestQuickDecompositionInvariance(t *testing.T) {
	f := func(procsRaw, threadsRaw, itersRaw uint8) bool {
		procs := []int{1, 2, 4}[procsRaw%3]
		threads := int(threadsRaw%4) + 1
		iters := int(itersRaw%5) + 1
		pr := Params{N: 32, Iters: iters, Procs: procs, Threads: threads}
		res, err := RunDCFA(perfmodel.Default(), pr, true)
		if err != nil {
			return false
		}
		return res.Checksum == ReferenceChecksum(Reference(pr), pr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestHaloBytesMatchMessageSizes(t *testing.T) {
	pr := PaperParams(2, 1)
	if pr.HaloBytes() != 1282*8 {
		t.Fatalf("halo bytes %d: %s", pr.HaloBytes(), fmt.Sprint(pr))
	}
}
