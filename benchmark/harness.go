package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/causal"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// repOpts selects one rep of one workload.
type repOpts struct {
	def   *workloadDef
	scale string
	seed  uint64
	rep   int
	// traced attaches a metrics.Registry through cluster.SetMetrics and
	// reports the per-layer counts read from it. profiled records the
	// phase spans and takes a CPU profile of the timed region; it is a
	// separate child because the registry's per-message spans shift the
	// profile (pp_eager: 6 GC cycles with it, 25 without). End-to-end
	// numbers are never taken from either.
	traced   bool
	profiled bool
	// start is the reference instant of setup_s: the moment the runner
	// launched this child (or, in-process, the moment runRep was
	// called), so process start-up is part of set-up.
	start time.Time
	// procs, when set, overrides the GOMAXPROCS the runner gives the
	// child (the wall_ratio_p2 probe); the rep itself never reads it.
	procs int
	// corrupt flips one bit in every expected stamp. It exists so a test
	// can show that a wrong payload becomes ops_failed > 0.
	corrupt bool
}

// repResult is what one rep reports; the child prints it as JSON.
type repResult struct {
	Workload string `json:"workload"`
	Scale    string `json:"scale"`
	Seed     uint64 `json:"seed"`
	Rep      int    `json:"rep"`
	Traced   bool   `json:"traced"`
	Profiled bool   `json:"profiled"`
	DefSHA   string `json:"workload_def_sha256"`

	SetupS     float64 `json:"setup_s"`
	WallS      float64 `json:"wall_s"`
	AllocMB    float64 `json:"alloc_mb"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	SimTimeUS  float64 `json:"sim_time_us"`
	ChildWallS float64 `json:"child_wall_s"` // filled by the runner

	Fingerprint  string `json:"fingerprint"`
	OpsAttempted int64  `json:"ops_attempted"`
	OpsFailed    int64  `json:"ops_failed"`
	Err          string `json:"err,omitempty"`

	// Layer holds this rep's per-layer numbers keyed by metric name.
	// Exact counts are present on every rep, registry-derived counts on
	// a traced one, span times and cpu.*_pct on a profiled one.
	Layer map[string]float64 `json:"layer"`
	Spans []span             `json:"spans,omitempty"`
}

// span is one benchmark-side interval on the host clock, in nanoseconds
// since the rep's reference instant. Parent is an index into the same
// slice, -1 for the root.
type span struct {
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
}

// checker tallies verified operations. Ranks share it: the engine runs
// one process at a time, so plain fields are safe.
type checker struct {
	attempted, failed int64
	flip              uint64 // xor'ed into every expectation (repOpts.corrupt)
}

func (c *checker) check(ok bool) {
	c.attempted++
	if !ok {
		c.failed++
	}
}

// edge is a snapshot of every cumulative quantity at one boundary of
// the timed region. All deltas in the report are e1 - e0.
type edge struct {
	host   time.Time
	sim    sim.Time
	events int64
	mem    runtime.MemStats
	cpu    time.Duration
	gor    int
	stats  [len(statNames)]int64
	mrHits int64
	mrMiss int64
	reg    map[string]int64
}

// harness carries one rep's cluster, world, instrumentation and
// measurements through the workload body.
type harness struct {
	o   repOpts
	def *workloadDef
	it  iters
	// ranks and nodes are the job size at the rep's scale.
	ranks, nodes int
	plat         *perfmodel.Platform
	c            *cluster.Cluster
	w            *core.World

	reg *metrics.Registry

	chk   checker
	spans []span
	prof  bytes.Buffer

	e0, e1   edge
	simTimed sim.Duration   // overrides e1.sim-e0.sim when set (stencil)
	open     map[string]int // span name -> index of the open span
}

func newHarness(o repOpts) *harness {
	h := &harness{o: o, def: o.def, it: o.def.iters(o.scale), plat: perfmodel.Default(), open: map[string]int{}}
	h.ranks, h.nodes = o.def.size(o.scale)
	if o.corrupt {
		h.chk.flip = 1
	}
	return h
}

func (h *harness) begin(name, parent string) {
	if !h.o.profiled {
		return
	}
	p := -1
	if parent != "" {
		p = h.open[parent]
	}
	h.open[name] = len(h.spans)
	h.spans = append(h.spans, span{Name: name, StartNS: time.Since(h.o.start).Nanoseconds(), Parent: p, Workload: h.def.Name, Rep: h.o.rep})
}

func (h *harness) end(name string) {
	// A rep that failed part-way never opened its later spans.
	if i, ok := h.open[name]; ok {
		h.spans[i].EndNS = time.Since(h.o.start).Nanoseconds()
	}
}

// build constructs the cluster and the world the definition describes,
// with whatever instrumentation the rep calls for installed first so QP
// creation picks up the handles.
func (h *harness) build() {
	h.begin("build", "rep")
	h.c, h.w = h.newWorld(true)
	h.end("build")
}

// newWorld builds one cluster and world from the definition. The rep's
// instrumentation goes to the measured world only: a warm-up world
// (stencil_8x56) must not add to its counts.
func (h *harness) newWorld(measured bool) (*cluster.Cluster, *core.World) {
	d := h.def
	c := cluster.NewWithTopo(h.plat, h.nodes, d.Topo)
	var ring *trace.Recorder
	if measured {
		if h.o.traced || d.Instr {
			h.reg = metrics.New()
			c.SetMetrics(h.reg)
		}
		if d.Instr {
			c.SetCausal(causal.New())
			ring = trace.New(d.TraceRing)
		}
	}
	cfg := core.ConfigFromPlatform(h.plat)
	cfg.Offload = d.Offload
	cfg.ConnectMode = d.Connect
	cfg.CollAllreduce = d.Allreduce
	if d.EagerSlots > 0 {
		cfg.EagerSlots = d.EagerSlots
	}
	if d.EagerMax > 0 {
		cfg.EagerMax = d.EagerMax
	}
	cfg.Metrics, cfg.Causal, cfg.Trace = c.Metrics, c.Causal, ring
	var envs []core.Env
	if d.Provider == "host" {
		envs = c.HostEnvs(h.ranks)
	} else {
		envs = c.DCFAEnvs(h.ranks)
	}
	return c, core.NewWorld(c.Eng, h.plat, cfg, envs)
}

// snapshot reads every cumulative counter. ranksUp is false before
// World.Run has built the ranks' MR caches.
func (h *harness) snapshot(ranksUp bool) edge {
	var e edge
	e.sim = h.c.Eng.Now()
	e.events = h.c.Eng.EventsRun()
	e.gor = runtime.NumGoroutine()
	if ranksUp {
		for i := 0; i < h.w.Size(); i++ {
			r := h.w.Rank(i)
			for i, v := range statVec(r.Stats) {
				e.stats[i] += v
			}
			hit, miss := r.MRCacheStats()
			e.mrHits += hit
			e.mrMiss += miss
		}
	}
	if h.o.traced {
		e.reg = registrySums(h.reg)
	}
	e.cpu = cpuTime()
	runtime.ReadMemStats(&e.mem)
	e.host = time.Now()
	return e
}

// startTimed is the leading edge of the timed region. Rank 0 calls it
// right after a barrier; the engine is cooperative, so no other rank is
// running while the host clock is read.
func (h *harness) startTimed(ranksUp bool) {
	h.end("warmup")
	h.begin("timed", "run")
	if h.o.profiled {
		if err := pprof.StartCPUProfile(&h.prof); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: cpu profile:", err)
		}
	}
	h.e0 = h.snapshot(ranksUp)
}

func (h *harness) endTimed() {
	h.e1 = h.snapshot(true)
	if h.o.profiled {
		pprof.StopCPUProfile()
	}
	h.end("timed")
	h.begin("verify", "run")
}

// phases is the shape every message-passing workload shares: barrier,
// warm-up iterations, barrier, timed iterations, barrier, then a final
// check outside the timed region. iter gets last=true on the final
// timed iteration so it can leave fully patterned buffers for final.
func (h *harness) phases(r *core.Rank, iter func(it int, last bool) error, final func() error) error {
	p := r.Proc()
	if err := r.Barrier(p); err != nil {
		return err
	}
	if r.ID() == 0 {
		h.end("bootstrap")
		h.begin("warmup", "run")
	}
	total := h.it.Warmup + h.it.Timed
	for it := 0; it < total; it++ {
		if it == h.it.Warmup {
			if err := r.Barrier(p); err != nil {
				return err
			}
			if r.ID() == 0 {
				h.startTimed(true)
			}
		}
		if err := iter(it, it == total-1); err != nil {
			return err
		}
	}
	if err := r.Barrier(p); err != nil {
		return err
	}
	if r.ID() == 0 {
		h.endTimed()
	}
	if final != nil {
		return final()
	}
	return nil
}

// run executes body on every rank and folds a rank or engine error into
// the op tally: a rep that did not finish has no trustworthy op.
func (h *harness) run(body func(r *core.Rank) error) error {
	h.begin("run", "rep")
	h.begin("bootstrap", "run")
	err := h.w.Run(func(r *core.Rank) error {
		err := body(r)
		if r.ID() == 0 && err == nil {
			h.end("verify")
			h.begin("finalize", "run")
		}
		return err
	})
	h.end("finalize")
	h.end("run")
	return err
}

// result assembles the rep's report after the world has finished.
func (h *harness) result(runErr error) repResult {
	res := repResult{
		Workload: h.def.Name, Scale: h.o.scale, Seed: h.o.seed, Rep: h.o.rep, Traced: h.o.traced, Profiled: h.o.profiled,
		DefSHA:       h.def.sha256Hex(),
		Fingerprint:  fmt.Sprintf("%#016x", h.c.Eng.Fingerprint()),
		OpsAttempted: h.chk.attempted, OpsFailed: h.chk.failed,
		Layer: map[string]float64{},
	}
	if runErr != nil {
		res.Err = runErr.Error()
		if res.OpsAttempted == 0 {
			res.OpsAttempted = 1
		}
		res.OpsFailed = res.OpsAttempted
		return res
	}
	e0, e1 := h.e0, h.e1
	res.SetupS = e0.host.Sub(h.o.start).Seconds()
	res.WallS = e1.host.Sub(e0.host).Seconds()
	res.AllocMB = float64(e1.mem.TotalAlloc-e0.mem.TotalAlloc) / 1e6
	res.PeakRSSMB = peakRSSMB()
	simTimed := e1.sim - e0.sim
	if h.simTimed > 0 {
		simTimed = h.simTimed
	}
	res.SimTimeUS = simTimed.Micros()
	h.layerMetrics(&res, simTimed)
	res.Spans = h.spans
	return res
}

// layerMetrics fills res.Layer from the two edges.
func (h *harness) layerMetrics(res *repResult, simTimed sim.Duration) {
	e0, e1 := h.e0, h.e1
	L := res.Layer
	events := float64(e1.events - e0.events)
	ops := float64(h.chk.attempted)
	L["sim_time_us"] = simTimed.Micros()
	L["sim.events"] = events
	L["sim.events_per_s"] = ratio(events, res.WallS)
	L["sim.events_per_op"] = ratio(events, ops)

	for i, name := range statNames {
		L[name] = float64(e1.stats[i] - e0.stats[i])
	}
	hits, miss := float64(e1.mrHits-e0.mrHits), float64(e1.mrMiss-e0.mrMiss)
	L["core.mrcache_hit_ratio"] = ratio(hits, hits+miss)
	L["core.host_ns_per_msg"] = ratio(res.WallS*1e9, L["core.msgs_sent"])

	if ft, ok := h.c.Fabric.Topo.(*topo.FatTree); ok {
		L["topo.interior_bytes"] = float64(ft.InteriorBytes())
	} else {
		L["topo.interior_bytes"] = 0
	}

	L["goruntime.cpu_s"] = (e1.cpu - e0.cpu).Seconds()
	L["goruntime.mallocs_per_event"] = ratio(float64(e1.mem.Mallocs-e0.mem.Mallocs), events)
	L["goruntime.gc_cycles"] = float64(e1.mem.NumGC - e0.mem.NumGC)
	L["goruntime.gc_pause_ms"] = float64(e1.mem.PauseTotalNs-e0.mem.PauseTotalNs) / 1e6
	gor := e1.gor
	if e0.gor > gor {
		gor = e0.gor
	}
	L["goruntime.goroutines_peak"] = float64(gor)

	if h.o.traced {
		for _, k := range registryKeys {
			L[k] = float64(e1.reg[k] - e0.reg[k])
		}
		// Delegated commands are almost all set-up work (connect, MR
		// registration), so the dcfa numbers cover the whole rep.
		whole := registrySums(h.reg)
		L["dcfa.cmds"] = float64(whole["dcfa.cmds"])
		L["dcfa.cmd_retries"] = float64(whole["dcfa.cmd_retries"])
		L["dcfa.cmd_rtt_mean_ns"] = ratio(float64(whole[cmdRTTSum]), float64(whole[cmdRTTCount]))
	}
	if !h.o.profiled {
		return
	}
	dur := func(name string) float64 {
		for _, s := range h.spans {
			if s.Name == name {
				return float64(s.EndNS-s.StartNS) / 1e6
			}
		}
		return 0
	}
	L["cluster.build_ms"] = dur("build")
	L["cluster.build_us_per_rank"] = dur("build") * 1e3 / float64(h.ranks)
	L["core.bootstrap_ms"] = dur("bootstrap")
	L["core.finalize_ms"] = dur("finalize")
	L["span.warmup_ms"] = dur("warmup")
	L["span.verify_ms"] = dur("verify")
	L["span.rep_self_ms"] = selfMS(h.spans, "rep")

	pct, samples := cpuBuckets(h.prof.Bytes())
	L["cpu.samples"] = float64(samples)
	for i, name := range cpuBucketNames {
		L["cpu."+name+"_pct"] = pct[i]
	}
}

// selfMS is a span's duration minus the part its direct children cover.
func selfMS(spans []span, name string) float64 {
	for i, s := range spans {
		if s.Name != name {
			continue
		}
		self := s.EndNS - s.StartNS
		for _, c := range spans {
			if c.Parent == i {
				self -= c.EndNS - c.StartNS
			}
		}
		return float64(self) / 1e6
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// statNames are the per-layer metrics read from Rank.Stats, summed over
// ranks; statVec lists one rank's counters in the same order.
var statNames = [...]string{
	"core.msgs_sent", "core.eager_sends", "core.rndv_sends", "core.offloaded_sends",
	"core.credit_packets", "core.unexpected", "core.retries",
}

func statVec(s core.Stats) [len(statNames)]int64 {
	return [...]int64{s.MsgsSent, s.EagerSends, s.RndvSends, s.OffloadedSends, s.CreditPackets, s.Unexpected, s.Retries}
}

// registryKeys are the registrySums totals reported, as timed-region
// deltas, under the same per-layer metric name. The dcfa.* sums are
// reported for the whole rep instead.
var registryKeys = []string{
	"ib.wr_posted", "ib.wr_completed", "ib.send_bytes", "ib.rdma_bytes",
	"pcie.dma_copies", "pcie.dma_bytes", "pcie.dma_busy_ns", "pcie.coi_ops",
	"core.mispredicts", "core.any_source_locks",
}

const (
	cmdRTTSum   = "dcfa.cmd_rtt_sum"
	cmdRTTCount = "dcfa.cmd_rtt_count"
)

// registrySums folds the registry's (actor, name) instruments into the
// per-layer totals, summing over actors.
func registrySums(reg *metrics.Registry) map[string]int64 {
	out := make(map[string]int64, len(registryKeys)+2)
	snap := reg.Snapshot()
	for _, c := range snap.Counters {
		switch {
		case strings.HasSuffix(c.Name, ".posted"):
			out["ib.wr_posted"] += c.Value
		case strings.HasSuffix(c.Name, ".completed"):
			out["ib.wr_completed"] += c.Value
		case c.Name == "send.bytes":
			out["ib.send_bytes"] += c.Value
		case strings.HasPrefix(c.Name, "rdma-write.bytes.") || strings.HasPrefix(c.Name, "rdma-read.bytes."):
			out["ib.rdma_bytes"] += c.Value
		case c.Name == "dma.copies":
			out["pcie.dma_copies"] += c.Value
		case c.Name == "dma.bytes":
			out["pcie.dma_bytes"] += c.Value
		case c.Name == "dma.busy-ns":
			out["pcie.dma_busy_ns"] += c.Value
		case c.Name == "coi.ops":
			out["pcie.coi_ops"] += c.Value
		case c.Name == "cmd.retries":
			out["dcfa.cmd_retries"] += c.Value
		case c.Name == "cmd.timeouts":
		case strings.HasPrefix(c.Name, "cmd."):
			out["dcfa.cmds"] += c.Value
		case c.Name == "proto.mispredicts":
			out["core.mispredicts"] += c.Value
		case c.Name == "any-source.locks":
			out["core.any_source_locks"] += c.Value
		}
	}
	for _, hs := range snap.Histograms {
		if strings.HasPrefix(hs.Name, "cmd-rtt.") {
			out[cmdRTTSum] += hs.Sum
			out[cmdRTTCount] += hs.Count
		}
	}
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	return 0
}
