package stencil

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/omp"
	"repro/internal/perfmodel"
)

func TestQuarterMatchesIEEE(t *testing.T) {
	check := func(b uint64) {
		want := math.Float64bits(0.25 * math.Float64frombits(b))
		if got := quarterTiny(b); got != want {
			t.Fatalf("quarterTiny(%#x) = %#x, 0.25*x is %#x", b, got, want)
		}
	}
	for _, sign := range []uint64{0, signBit} {
		// The low 2^20 patterns of each tiny binade: every remainder and
		// tie at both parities of the quotient.
		for e := uint64(0); e <= 2; e++ {
			for m := uint64(0); m < 1<<20; m++ {
				check(sign | e<<52 | m)
			}
		}
		for _, a := range []uint64{
			0, 1, 2, 3, 5, 6, 7, // ±0 and the first ties
			1<<52 - 1, 1 << 52, // the subnormal/normal boundary
			1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<53 + 3, // into exponent 2
			tinyEnd - 3, tinyEnd - 2, tinyEnd - 1, // rounds up to 2^-1022
		} {
			check(sign | a)
		}
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 10_000_000; i++ {
		check(rng.Uint64()&(signBit|1<<52-1) | uint64(rng.Intn(3))<<52)
	}
}

func TestIsTinyCoversEverySubnormalQuarter(t *testing.T) {
	for _, c := range []struct {
		b    uint64
		tiny bool
	}{
		{0, true}, {signBit, true}, {1, true}, {signBit | 1, true},
		{tinyEnd - 1, true}, {signBit | tinyEnd - 1, true}, {tinyEnd, false},
		{math.Float64bits(math.Inf(1)), false}, {math.Float64bits(math.Inf(-1)), false},
		{math.Float64bits(math.NaN()), false},
	} {
		if got := isTiny(c.b); got != c.tiny {
			t.Errorf("isTiny(%#x) = %v, want %v", c.b, got, c.tiny)
		}
	}
	// Over every finite binade: x is tiny exactly when |x| < 2^-1020, and
	// the quarter of any other x is normal, so its multiply is fast.
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 1_000_000; i++ {
		b := rng.Uint64()&(signBit|1<<52-1) | uint64(rng.Intn(2047))<<52
		x := math.Float64frombits(b)
		if want := math.Abs(x) < 0x1p-1020; isTiny(b) != want {
			t.Fatalf("isTiny(%#x) = %v for x = %v", b, isTiny(b), x)
		}
		if q := math.Abs(0.25 * x); !isTiny(b) && q < 0x1p-1022 {
			t.Fatalf("x = %v is not tiny, but 0.25*x = %v is subnormal", x, q)
		}
	}
}

func TestSubnormalBandMatchesReference(t *testing.T) {
	// The checksum is blind to the band: flushing every sum below
	// 2^-1000 to zero leaves stencil_8x56's checksum unchanged. So this
	// compares every cell of a run that grows a band with Reference, and
	// pins the grid's digest, recorded from the plain loop. After 560
	// sweeps on this grid 4 036 cells are subnormal.
	const wantGrid = 0x76d3cf7f8c5078b // FNV-1a over the cells' bits
	pr := Params{N: 576, Iters: 560, Procs: 8, Threads: 2}
	rowsPer, w := pr.N/pr.Procs, pr.Width()
	got := make([]float64, w*w)
	carefulRows := make([]int64, pr.Procs)
	world := cluster.New(perfmodel.Default(), pr.Procs).DCFAWorld(pr.Procs, true)
	err := world.Run(func(r *core.Rank) error {
		p, k := r.Proc(), r.ID()
		l := newSlab(r.Domain(), rowsPer, w, k == 0)
		team := omp.NewTeam(world.Plat, pr.Threads, r.Loc())
		careful := make([]bool, l.rows+2)
		for s := 0; s < pr.Iters; s++ {
			if err := exchange(p, r, l, pr); err != nil {
				return err
			}
			copy(careful, l.careful)
			l.sweep(p, team, false)
			g := f64view(l.cur.Data)
			for row := 1; row <= l.rows; row++ {
				switch computed := !l.curClear[row]; {
				case computed && careful[row]:
					carefulRows[k]++
				case computed && s == pr.Iters-1:
					for c := 1; c < w-1; c++ {
						if v := math.Abs(g[row*w+c]); v != 0 && v < 0x1p-1022 {
							return fmt.Errorf("the fast loop left subnormal %v in row %d, column %d", g[row*w+c], row, c)
						}
					}
				}
			}
		}
		copy(got[(1+k*rowsPer)*w:(1+(k+1)*rowsPer)*w], f64view(l.cur.Data)[w:(rowsPer+1)*w])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := Reference(pr)
	copy(got[:w], ref[:w])
	copy(got[(pr.N+1)*w:], ref[(pr.N+1)*w:])
	band := 0
	for i := range ref {
		if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("cell (%d,%d) = %v (%#x), reference %v (%#x)",
				i/w, i%w, got[i], math.Float64bits(got[i]), ref[i], math.Float64bits(ref[i]))
		}
		if v := math.Abs(ref[i]); v != 0 && v < 0x1p-1022 {
			band++
		}
	}
	if band < 1000 {
		t.Errorf("%d subnormal cells after %d sweeps; the band this test guards has not formed", band, pr.Iters)
	}
	if d := gridDigest(ref); d != wantGrid {
		t.Errorf("reference grid digest %#x, pinned %#x", d, uint64(wantGrid))
	}
	total := int64(0)
	for _, n := range carefulRows {
		total += n
	}
	if total == 0 {
		t.Error("no row went through the careful loop")
	}
	t.Logf("%d subnormal cells; %d rows computed careful, by rank %v", band, total, carefulRows)
}
