package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// schemaVersion identifies the report layout and the workload table
// below. Any edit to a workloadDef field must bump it and refresh the
// golden hashes in defs_test.go: numbers taken under different
// definitions are not comparable, and compare refuses to mix them.
const schemaVersion = 2

// Iteration counts per scale. Full is the measured configuration
// (sized on the reference box for a ~2 s timed region, see README.md);
// Tiny keeps every code path but finishes in milliseconds, for the
// in-process smoke tests.
type iters struct {
	Warmup int `json:"warmup"`
	Timed  int `json:"timed"`
}

// workloadDef pins every parameter of one workload. The struct is
// hashed as JSON into workload_def_sha256, so field order and tags are
// part of the schema.
type workloadDef struct {
	Name string `json:"name"`
	// Why is BENCHMARK.json's one-line reason; prose, so not hashed.
	Why string `json:"-"`
	// Gated workloads are the ones BENCHMARK.json lists, which the
	// benchmark driver runs and holds to the regression bounds. Its time
	// cap (4 + 22 runs per workload in 3420 s) buys 30-second runs for
	// four workloads or 10-second runs for seven, and at 10 seconds the
	// run-to-run spread of wall_s reached the widest bound the contract
	// allows; see README.md. The other three run under run, trace and all.
	Gated bool `json:"-"`

	Ranks int `json:"ranks"`
	Nodes int `json:"nodes"`
	// TinyRanks and TinyNodes shrink the job at tiny scale (0 = same).
	TinyRanks int    `json:"tiny_ranks"`
	TinyNodes int    `json:"tiny_nodes"`
	Provider  string `json:"provider"` // "dcfa" (ranks on the Phi) or "host"
	Topo      string `json:"topo"`     // topo.ByName name; "flat" = crossbar
	Offload   bool   `json:"offload"`
	// Connect, EagerSlots, EagerMax and Allreduce override the
	// platform-derived core.Config when non-zero.
	Connect    string `json:"connect"`
	EagerSlots int    `json:"eager_slots"`
	EagerMax   int    `json:"eager_max"`
	Allreduce  string `json:"allreduce"`
	// Instr attaches metrics.Registry + causal.Recorder + a bounded
	// trace.Recorder for the whole rep (the pp_eager_instr workload).
	Instr     bool `json:"instr"`
	TraceRing int  `json:"trace_ring"`

	MsgBytes  int   `json:"msg_bytes"`  // pp_eager*, bw_rndv_offload
	Window    int   `json:"window"`     // bw_rndv_offload: messages per window
	AckBytes  int   `json:"ack_bytes"`  // bw_rndv_offload
	Sizes     []int `json:"sizes"`      // p2p_mixed
	RoundMsgs int   `json:"round_msgs"` // p2p_mixed
	AnyEvery  int   `json:"any_every"`  // p2p_mixed: every n-th receive is ANY_SOURCE
	Elems     int   `json:"elems"`      // allreduce_ring_256: f64 per rank

	// coll_mix_64x8 payloads.
	SmallElems int `json:"small_elems"`
	LargeElems int `json:"large_elems"`
	BcastBytes int `json:"bcast_bytes"`
	A2ABlock   int `json:"a2a_block"`
	StencilN   int `json:"stencil_n"`
	TinyN      int `json:"tiny_n"`
	Threads    int `json:"threads"`
	// GoldenChecksum is the stencil_8x56 interior sum at Full scale.
	GoldenChecksum float64 `json:"golden_checksum"`

	Full iters `json:"full"`
	Tiny iters `json:"tiny"`
}

// workloads is the one table of pinned definitions. Order is the
// report order and the round-robin order of the runner.
var workloads = []workloadDef{
	{
		Name:  "pp_eager",
		Gated: true,
		Why:   "sim proc handoff + core eager path + ib SEND->CQE and nothing else; bypasses topo, rendezvous, collectives, doorbell fan-out",
		Ranks: 2, Nodes: 2, Provider: "dcfa", Topo: "flat", Offload: true,
		MsgBytes: 1024,
		Full:     iters{Warmup: 20000, Timed: 220000},
		Tiny:     iters{Warmup: 20, Timed: 200},
	},
	{
		Name:  "bw_rndv_offload",
		Gated: true,
		Why:   "the paper's headline path: rendezvous + MR cache + offload send buffer + pcie DMA + real memmove; few events, many bytes",
		Ranks: 2, Nodes: 2, Provider: "dcfa", Topo: "flat", Offload: true,
		MsgBytes: 256 << 10, Window: 8, AckBytes: 4,
		Full: iters{Warmup: 250, Timed: 5000},
		Tiny: iters{Warmup: 2, Timed: 6},
	},
	{
		Name:  "p2p_mixed",
		Why:   "matching, unexpected queue, eager/rendezvous misprediction at the 8192/8193 edge and ANY_SOURCE locks with many requests in flight; the only schedule-seeded workload",
		Ranks: 4, Nodes: 4, Provider: "dcfa", Topo: "flat", Offload: true,
		Sizes: []int{64, 1024, 8192, 8193, 32768}, RoundMsgs: 24, AnyEvery: 8,
		Full: iters{Warmup: 300, Timed: 7500},
		Tiny: iters{Warmup: 5, Timed: 10},
	},
	{
		Name:  "pp_eager_instr",
		Why:   "pp_eager with metrics + causal + trace attached: the instrumentation layer's cost, which must move here and leave pp_eager alone",
		Ranks: 2, Nodes: 2, Provider: "dcfa", Topo: "flat", Offload: true,
		MsgBytes: 1024, Instr: true, TraceRing: 4096,
		Full: iters{Warmup: 10000, Timed: 100000},
		Tiny: iters{Warmup: 20, Timed: 200},
	},
	{
		Name:  "allreduce_ring_256",
		Gated: true,
		Why:   "deep calendar, 256 parked procs, fat-tree Deliver on every packet: the stand-in for the 1000-rank flagship that fits a rep",
		Ranks: 256, Nodes: 256, Provider: "host", Topo: "fattree", Offload: false,
		TinyRanks: 32, TinyNodes: 32,
		Connect: "lazy", EagerSlots: 8, EagerMax: 1024, Allreduce: "ring",
		Elems: 1000,
		Full:  iters{Warmup: 1, Timed: 2},
		Tiny:  iters{Warmup: 1, Timed: 1},
	},
	{
		Name:  "coll_mix_64x8",
		Why:   "8 ranks behind each HCA (doorbell fan-out), the collective selector (rd, binomial, pairwise) and all-pairs connect through the DCFA command channel",
		Ranks: 64, Nodes: 8, Provider: "dcfa", Topo: "flat", Offload: false,
		TinyRanks: 16, TinyNodes: 2,
		Connect: "eager", EagerSlots: 8,
		SmallElems: 1, LargeElems: 8192, BcastBytes: 4096, A2ABlock: 512,
		Full: iters{Warmup: 1, Timed: 6},
		Tiny: iters{Warmup: 1, Timed: 1},
	},
	{
		Name:  "stencil_8x56",
		Gated: true,
		Why:   "the paper's application (8 Phi x 56 threads, real float64 math, 10 KiB halo rendezvous): the engine does little, so engine work predicts no change here",
		Ranks: 8, Nodes: 8, Provider: "dcfa", Topo: "flat", Offload: true,
		StencilN: 1280, TinyN: 64, Threads: 56, GoldenChecksum: 18533.30260555758,
		Full: iters{Warmup: 40, Timed: 720},
		Tiny: iters{Warmup: 2, Timed: 8},
	},
}

// scaleFull and scaleTiny name the two sizings of every workload.
const (
	scaleFull = "full"
	scaleTiny = "tiny"
)

func (d *workloadDef) iters(scale string) iters {
	if scale == scaleTiny {
		return d.Tiny
	}
	return d.Full
}

// size is the job's rank and node count at scale.
func (d *workloadDef) size(scale string) (ranks, nodes int) {
	if scale == scaleTiny && d.TinyRanks > 0 {
		return d.TinyRanks, d.TinyNodes
	}
	return d.Ranks, d.Nodes
}

// sha256Hex hashes the definition's canonical JSON form.
func (d *workloadDef) sha256Hex() string {
	data, err := json.Marshal(d)
	if err != nil {
		// A struct of ints, strings and slices cannot fail to marshal.
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func findWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
