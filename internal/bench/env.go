package bench

import (
	"repro/internal/causal"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
)

// Env carries one benchmark run's configuration and observability
// sinks. Each Env is independent: two sweeps with different metrics
// registries or fault plans can run in one process — even concurrently,
// in separate engines — without observing each other. Nothing lints
// for that any more (the two-engine -race test in internal/core sees
// only the packages it drives, not this one): do not add package-level
// knobs back.
type Env struct {
	// Metrics, when non-nil, is installed on every cluster and fabric
	// the sweeps build, so a whole figure run reports into one registry.
	Metrics *metrics.Registry
	// Faults, when non-nil, installs a deterministic fault injector on
	// every cluster the sweeps build. Each world gets a fresh injector
	// from the same plan, so runs stay reproducible regardless of sweep
	// order.
	Faults *faults.Plan
	// Causal, when non-nil, is the causal-event recorder installed on
	// every cluster the Env builds. Recording is passive: fingerprints
	// match the unrecorded run.
	Causal *causal.Recorder
	// MsgSizes is the message-size sweep used by the communication
	// figures.
	MsgSizes []int
	// StencilIters is the per-configuration iteration count for the
	// stencil figures; the paper uses 100 but the averages stabilize
	// much earlier.
	StencilIters int
}

// NewEnv returns the default benchmark configuration.
func NewEnv() *Env {
	return &Env{
		MsgSizes:     []int{4, 64, 1024, 4096, 8192, 16384, 65536, 262144, 1 << 20, 4 << 20},
		StencilIters: 20,
	}
}

// install puts everything the Env carries on c — the one place bench
// does so, so a figure, ablation or workload cannot miss a sink.
func (e *Env) install(c *cluster.Cluster) *cluster.Cluster {
	c.SetMetrics(e.Metrics)
	c.SetFaults(e.Faults)
	c.SetCausal(e.Causal)
	return c
}

// Cluster builds a fresh n-node cluster carrying the Env's sinks; every
// cluster a figure, ablation or harness workload runs on comes from
// here.
func (e *Env) Cluster(plat *perfmodel.Platform, n int) *cluster.Cluster {
	return e.install(cluster.New(plat, n))
}

// world builds a fresh cluster of the size the mode fills with ranks
// ranks and a world of the mode on it.
func (e *Env) world(plat *perfmodel.Platform, m cluster.Mode, ranks int) *core.World {
	return e.Cluster(plat, m.Nodes(ranks)).World(m, ranks)
}

// tunedWorld is world with the mode's paper-tuned configuration
// adjusted by tune.
func (e *Env) tunedWorld(plat *perfmodel.Platform, m cluster.Mode, ranks int, tune func(*core.Config)) *core.World {
	c := e.Cluster(plat, m.Nodes(ranks))
	cfg := c.Config(m)
	tune(&cfg)
	return core.NewWorld(c.Eng, plat, cfg, c.Envs(m, ranks))
}
