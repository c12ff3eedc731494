package main

// metricDef names one reported number. The two tables below are the
// benchmark's vocabulary; BENCHMARK.json lists exactly these (a test
// compares them).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated worsening, share of the baseline median
}

// endToEnd are the costs a user of the simulator pays per experiment,
// all on the host clock or in host memory. The simulated answer,
// sim_time_us, is reported beside them in every report and compared
// exactly by `compare`; it sits in perLayer because it repeats to the
// last digit on every run of a seed, which a bounded timing must not.
//
// The bounds follow the noise measured on the reference sandbox, a
// shared host whose other tenants add time in bursts (a rep caught by
// one runs 20-40% long) over a floor that itself drifts by 5% within
// minutes. The host times report the smallest rep of a run (runner.go,
// pickMin), which removes the bursts; ten 30-second runs of one
// workload still spread (IQR / median) 5-7% in wall_s and setup_s from
// the drift, and the driver's host has been three times noisier, so
// both take the widest bound the contract allows. peak_rss_mb spreads
// up to 5% (pp_eager_instr, whose peak depends on GC timing; under 1%
// elsewhere) and alloc_mb under 0.02%. A bound below the noise would
// reject the unchanged program.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer lists every per-layer metric a traced run reports for its
// workload. Traced-run metrics come from that workload; driver and
// model metrics (drivers.go) are properties of the layers alone and
// read the same whichever workload the run was asked for.
var perLayer = []metricDef{
	{Name: "sim_time_us", Unit: "sim_us", Better: "lower"},

	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.events_per_op", Unit: "count", Better: "lower"},
	{Name: "sim.callback_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.callback_deep_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.handoff_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.sleep_fast_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.signal_fanout_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.link_reserve_ns", Unit: "ns", Better: "lower"},

	{Name: "ib.wr_posted", Unit: "count", Better: "lower"},
	{Name: "ib.wr_completed", Unit: "count", Better: "lower"},
	{Name: "ib.send_bytes", Unit: "bytes", Better: "lower"},
	{Name: "ib.rdma_bytes", Unit: "bytes", Better: "lower"},
	{Name: "ib.send_cqe_ns", Unit: "ns", Better: "lower"},
	{Name: "ib.send_cqe_allocs", Unit: "count", Better: "lower"},
	{Name: "ib.rdma_write_64k_ns", Unit: "ns", Better: "lower"},
	{Name: "ib.rdma_write_64k_allocs", Unit: "count", Better: "lower"},
	{Name: "ib.reg_mr_ns", Unit: "ns", Better: "lower"},

	{Name: "topo.interior_bytes", Unit: "bytes", Better: "lower"},
	{Name: "topo.deliver_same_leaf_ns", Unit: "ns", Better: "lower"},
	{Name: "topo.deliver_cross_leaf_ns", Unit: "ns", Better: "lower"},

	{Name: "pcie.dma_copies", Unit: "count", Better: "lower"},
	{Name: "pcie.dma_bytes", Unit: "bytes", Better: "lower"},
	{Name: "pcie.dma_busy_ns", Unit: "sim_ns", Better: "lower"},
	{Name: "pcie.coi_ops", Unit: "count", Better: "lower"},
	{Name: "pcie.dma_copy_64k_ns", Unit: "ns", Better: "lower"},

	{Name: "dcfa.cmds", Unit: "count", Better: "lower"},
	{Name: "dcfa.cmd_retries", Unit: "count", Better: "lower"},
	{Name: "dcfa.cmd_rtt_mean_ns", Unit: "sim_ns", Better: "lower"},
	{Name: "scif.call_ns", Unit: "ns", Better: "lower"},
	{Name: "dcfa.reg_mr_ns", Unit: "ns", Better: "lower"},
	{Name: "dcfa.sync_offload_64k_ns", Unit: "ns", Better: "lower"},

	{Name: "core.msgs_sent", Unit: "count", Better: "lower"},
	{Name: "core.eager_sends", Unit: "count", Better: "lower"},
	{Name: "core.rndv_sends", Unit: "count", Better: "lower"},
	{Name: "core.offloaded_sends", Unit: "count", Better: "higher"},
	{Name: "core.credit_packets", Unit: "count", Better: "lower"},
	{Name: "core.unexpected", Unit: "count", Better: "lower"},
	{Name: "core.mispredicts", Unit: "count", Better: "lower"},
	{Name: "core.any_source_locks", Unit: "count", Better: "lower"},
	{Name: "core.mrcache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.retries", Unit: "count", Better: "lower"},
	{Name: "core.host_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "core.bootstrap_ms", Unit: "ms", Better: "lower"},
	{Name: "core.finalize_ms", Unit: "ms", Better: "lower"},

	{Name: "cluster.build_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.build_us_per_rank", Unit: "us", Better: "lower"},
	{Name: "span.warmup_ms", Unit: "ms", Better: "lower"},
	{Name: "span.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "span.rep_self_ms", Unit: "ms", Better: "lower"},

	{Name: "instr.msg_cost_ratio", Unit: "ratio", Better: "lower"},
	{Name: "instr.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "instr.counter_add_ns", Unit: "ns", Better: "lower"},
	{Name: "instr.span_ns", Unit: "ns", Better: "lower"},
	{Name: "instr.causal_emit_ns", Unit: "ns", Better: "lower"},
	{Name: "instr.trace_log_ns", Unit: "ns", Better: "lower"},

	{Name: "goruntime.cpu_s", Unit: "s", Better: "lower"},
	{Name: "goruntime.mallocs_per_event", Unit: "count", Better: "lower"},
	{Name: "goruntime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "goruntime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "goruntime.goroutines_peak", Unit: "count", Better: "lower"},
	{Name: "goruntime.wall_ratio_p2", Unit: "ratio", Better: "lower"},

	{Name: "cpu.samples", Unit: "count", Better: "higher"},
	{Name: "cpu.sim_pct", Unit: "%", Better: "lower"},
	{Name: "cpu.ib_pct", Unit: "%", Better: "lower"},
	{Name: "cpu.core_pct", Unit: "%", Better: "lower"},
	{Name: "cpu.topo_pct", Unit: "%", Better: "lower"},
	{Name: "cpu.pcie_pct", Unit: "%", Better: "lower"},
	{Name: "cpu.dcfa_scif_pct", Unit: "%", Better: "lower"},
	{Name: "cpu.instr_pct", Unit: "%", Better: "lower"},
	{Name: "cpu.app_pct", Unit: "%", Better: "higher"},
	{Name: "cpu.rt_handoff_pct", Unit: "%", Better: "lower"},
	{Name: "cpu.rt_gc_alloc_pct", Unit: "%", Better: "lower"},
	{Name: "cpu.rt_memmove_pct", Unit: "%", Better: "lower"},
	{Name: "cpu.rt_other_pct", Unit: "%", Better: "lower"},

	{Name: "model.bw_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "model.bw_err_pct", Unit: "%", Better: "lower"},
	{Name: "model.stencil_iter_us", Unit: "sim_us", Better: "lower"},
	{Name: "model.stencil_speedup_x", Unit: "x", Better: "higher"},
	{Name: "model.stencil_speedup_err_pct", Unit: "%", Better: "lower"},
}

// exactLayer are the per-layer numbers that every rep of a seed must
// reproduce to the last digit; compare treats any difference between
// two reports as a model change.
var exactLayer = []string{
	"sim_time_us", "sim.events",
	"core.msgs_sent", "core.eager_sends", "core.rndv_sends", "core.offloaded_sends",
	"core.credit_packets", "core.unexpected", "core.retries", "topo.interior_bytes",
}

// Paper figures the model metrics are set against.
const (
	paperBWGBps         = 2.8 // Fig 8: peak inter-node bandwidth with the offloading send buffer
	paperStencilSpeedup = 117 // Fig 12: DCFA-MPI at 8 procs x 56 threads over the serial program
)
