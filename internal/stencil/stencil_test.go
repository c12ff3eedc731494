package stencil

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// runMode runs pr in mode m on a fresh cluster, one node per process.
func runMode(plat *perfmodel.Platform, m cluster.Mode, pr Params) (Result, error) {
	return Run(cluster.New(plat, pr.Procs), m, pr)
}

// smallParams keeps the real math cheap in tests.
func smallParams(procs, threads int) Params {
	return Params{N: 64, Iters: 8, Procs: procs, Threads: threads}
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

func TestPhiMPIMatchesReference(t *testing.T) {
	pr := smallParams(4, 2)
	res, err := runMode(perfmodel.Default(), cluster.ModeIntelPhi, pr)
	if err != nil {
		t.Fatal(err)
	}
	want := ReferenceChecksum(Reference(pr), pr)
	if res.Checksum != want {
		t.Fatalf("checksum %v, reference %v", res.Checksum, want)
	}
}

func TestHostOffloadMatchesReference(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		pr := smallParams(procs, 2)
		res, err := runMode(perfmodel.Default(), cluster.ModeHostOffload, pr)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		want := ReferenceChecksum(Reference(pr), pr)
		if res.Checksum != want {
			t.Fatalf("procs=%d: checksum %v, reference %v", procs, res.Checksum, want)
		}
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
