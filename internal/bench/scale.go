package bench

// The thousand-rank scale workload: an allreduce across a switched
// fat-tree fabric with lazy connect, the configuration that proves the
// collectives layer and the topology model hold up at three orders of
// magnitude more ranks than the paper's 8-node testbed.

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// ScaleConfig parameterizes ScaleAllreduce. Zero fields take the
// flagship defaults: 1000 ranks, 1000 f64 elements, seed 7, fat-tree
// topology, ring algorithm (benchmark/ times the same configuration at
// 256 ranks as allreduce_ring_256).
type ScaleConfig struct {
	Ranks int
	Elems int    // f64 elements reduced per rank
	Seed  uint64 // payload generator seed
	Topo  string // topo.ByName name; default "fattree"
	Algo  string // Config.CollAllreduce; default "ring"
	// Verify makes rank 0 recompute every rank's contribution and check
	// the reduced result element-wise (O(ranks·elems) host work, no
	// simulation events).
	Verify bool
}

func (c *ScaleConfig) defaults() {
	if c.Ranks <= 0 {
		c.Ranks = 1000
	}
	if c.Elems <= 0 {
		c.Elems = 1000
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	if c.Topo == "" {
		c.Topo = "fattree"
	}
	if c.Algo == "" {
		c.Algo = "ring"
	}
}

// ScaleFill writes rank id's contribution: elems f64 values, each a
// small integer from the rank's seeded splitmix64 stream. Small-integer
// payloads keep every reduction order bit-identical (integer f64 sums
// are exact), so algorithm results can be compared byte-for-byte.
func ScaleFill(dst []byte, seed uint64, id, elems int) {
	g := sim.NewSplitMix(seed ^ (uint64(id)+1)*0x9E3779B97F4A7C15)
	for i := 0; i < elems; i++ {
		v := float64(g.Intn(1024))
		binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(v))
	}
}

// scaleExpected computes the element-wise sum of every rank's
// contribution on the host (the oracle for Verify).
func scaleExpected(seed uint64, ranks, elems int) []float64 {
	want := make([]float64, elems)
	for id := 0; id < ranks; id++ {
		g := sim.NewSplitMix(seed ^ (uint64(id)+1)*0x9E3779B97F4A7C15)
		for i := range want {
			want[i] += float64(g.Intn(1024))
		}
	}
	return want
}

// ScaleAllreduce runs the scale workload. The world runs host-verbs
// ranks with the scale configuration: lazy connect (the all-pairs
// bootstrap would build ~10⁶ endpoint pairs), a shallow 8-slot eager
// ring, a 1 KiB eager threshold, and no offload arena (10³ ranks ×
// 16 MiB would dwarf the payload). Same seed ⇒ same fingerprint, byte
// for byte, with or without the Env's passive instrumentation.
func (e *Env) ScaleAllreduce(plat *perfmodel.Platform, cfg ScaleConfig) (PerfResult, error) {
	cfg.defaults()
	c := e.install(cluster.NewWithTopo(plat, cfg.Ranks, cfg.Topo))
	wcfg := c.Config(cluster.ModeHost)
	wcfg.EagerSlots = 8
	wcfg.EagerMax = 1024
	wcfg.ConnectMode = "lazy"
	wcfg.CollAllreduce = cfg.Algo
	w := core.NewWorld(c.Eng, plat, wcfg, c.Envs(cluster.ModeHost, cfg.Ranks))
	var want []float64
	if cfg.Verify {
		want = scaleExpected(cfg.Seed, cfg.Ranks, cfg.Elems)
	}
	err := w.Run(func(r *core.Rank) error {
		p := r.Proc()
		buf := r.Mem(cfg.Elems * 8)
		ScaleFill(buf.Data, cfg.Seed, r.ID(), cfg.Elems)
		if err := r.Allreduce(p, core.Whole(buf), core.OpSumF64); err != nil {
			return err
		}
		if want != nil && r.ID() == 0 {
			for i := range want {
				got := math.Float64frombits(binary.LittleEndian.Uint64(buf.Data[i*8:]))
				if got != want[i] {
					return fmt.Errorf("bench: allreduce element %d = %v, want %v", i, got, want[i])
				}
			}
		}
		return nil
	})
	if err != nil {
		return PerfResult{}, err
	}
	return PerfResult{
		Workload:    fmt.Sprintf("allreduce-%drank-%s-%s", cfg.Ranks, cfg.Algo, cfg.Topo),
		Events:      c.Eng.EventsRun(),
		SimTime:     c.Eng.Now(),
		Fingerprint: c.Eng.Fingerprint(),
	}, nil
}
