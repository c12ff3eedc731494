package bench

import (
	"repro/internal/faults"
	"repro/internal/metrics"
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
