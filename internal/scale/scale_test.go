package scale

// The scale harness: seeded allreduce runs over the switched fabric,
// parameterized by plain go-test flags so CI and humans can dial the
// rank count without editing code. Every run is double-checked — same
// seed, fresh engine — and must reproduce bit-for-bit.

import (
	"flag"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/perfmodel"
)

var (
	flagRanks = flag.Int("ranks", 64, "ranks for TestScaleAllreduce (CI smoke passes 1000)")
	flagElems = flag.Int("elems", 1000, "f64 elements reduced per rank")
	flagSeed  = flag.Uint64("seed", 7, "payload seed")
	flagTopo  = flag.String("topo", "fattree", "fabric topology: flat, fattree, fattree4")
	flagAlgo  = flag.String("algo", "ring", "allreduce algorithm: naive, ring, rd")
)

// scaleCfg materializes the flag set as a bench.ScaleConfig with the
// host-side result oracle enabled.
func scaleCfg() bench.ScaleConfig {
	return bench.ScaleConfig{
		Ranks: *flagRanks, Elems: *flagElems, Seed: *flagSeed,
		Topo: *flagTopo, Algo: *flagAlgo, Verify: true,
	}
}

// TestScaleAllreduce runs the configured allreduce twice on fresh
// engines. Rank 0 verifies the reduced vector element-wise against the
// host-computed sum inside each run; the two runs must then agree on
// fingerprint, event count and virtual end time. At the default 64
// ranks this is a sub-second smoke; -ranks=1000 is the headline
// three-orders-of-magnitude configuration (~20M events).
func TestScaleAllreduce(t *testing.T) {
	if testing.Short() && *flagRanks > 128 {
		t.Skipf("skipping %d ranks under -short (pass a smaller -ranks to run)", *flagRanks)
	}
	cfg := scaleCfg()
	plat := perfmodel.Default()

	start := time.Now()
	a, err := new(bench.Env).ScaleAllreduce(plat, cfg)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	wall1 := time.Since(start)

	start = time.Now()
	b, err := new(bench.Env).ScaleAllreduce(plat, cfg)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	wall2 := time.Since(start)

	t.Logf("%s: %d events, sim time %d ns, wall %v / %v",
		a.Workload, a.Events, int64(a.SimTime), wall1.Round(time.Millisecond), wall2.Round(time.Millisecond))

	if a.Fingerprint != b.Fingerprint {
		t.Errorf("fingerprints diverged across same-seed runs: %#x vs %#x", a.Fingerprint, b.Fingerprint)
	}
	if a.Events != b.Events {
		t.Errorf("event counts diverged: %d vs %d", a.Events, b.Events)
	}
	if a.SimTime != b.SimTime {
		t.Errorf("virtual end times diverged: %v vs %v", a.SimTime, b.SimTime)
	}
}

// TestScaleTopologyShapesSchedule: the topology model must actually
// bite. A 64-rank ring allreduce on the flat fabric and on the
// radix-4 fat tree (16 leaves, heavy uplink crossing) must finish at
// different virtual times — identical schedules would mean the
// switched interior is decorative.
func TestScaleTopologyShapesSchedule(t *testing.T) {
	plat := perfmodel.Default()
	base := bench.ScaleConfig{Ranks: 64, Elems: 256, Seed: 7, Algo: "ring", Verify: true}

	flatCfg := base
	flatCfg.Topo = "flat"
	flat, err := new(bench.Env).ScaleAllreduce(plat, flatCfg)
	if err != nil {
		t.Fatalf("flat: %v", err)
	}
	treeCfg := base
	treeCfg.Topo = "fattree4"
	tree, err := new(bench.Env).ScaleAllreduce(plat, treeCfg)
	if err != nil {
		t.Fatalf("fattree4: %v", err)
	}
	t.Logf("flat: %d ns, fattree4: %d ns", int64(flat.SimTime), int64(tree.SimTime))
	if flat.SimTime == tree.SimTime && flat.Fingerprint == tree.Fingerprint {
		t.Errorf("flat and fattree4 produced identical schedules (fp %#x, end %v) — topology model has no effect",
			flat.Fingerprint, flat.SimTime)
	}
	if tree.SimTime <= flat.SimTime {
		t.Errorf("radix-4 fat tree (%v) not slower than flat fabric (%v): uplink contention unmodeled?",
			tree.SimTime, flat.SimTime)
	}
}
