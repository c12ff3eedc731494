// Package faults provides a deterministic, seed-driven fault plan for
// the simulation. An Injector makes per-event fault decisions by
// hashing (seed, layer stream, decision counter, virtual now) through a
// splitmix64-style mixer — no math/rand, no global state, no wall
// clock — so the same seed over the same schedule yields the same
// faults, and the decision stream for one layer is independent of the
// others.
//
// The injector is a pure decision oracle: it never sleeps, never
// schedules events, and never consults metrics state. All timing
// consequences of a fault (error CQE latency, DMA delay, retry
// backoff) are applied by the layer that asked, using the engine's
// virtual clock. A nil *Injector is fully inert: every decision method
// reports "no fault" and every accessor returns its zero/disabled
// value, so un-faulted builds pay a nil check and nothing else.
package faults

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Plan is a parsed fault plan: per-layer rates plus the transport's
// replay budget. Rates are probabilities in [0,1]; a zero rate disables
// that layer.
type Plan struct {
	Seed uint64

	// IBError is the probability that a posted RDMA write/read flips
	// its completion to an error status and forces the local QP into
	// the Error state. IBDelivered is the conditional probability that
	// an errored RDMA *write* still delivered its payload before the
	// QP failed (the ambiguity real RC endpoints face: a retry-
	// exhausted WR may or may not have landed remotely).
	IBError     float64
	IBDelivered float64

	// Cmd is the probability that one DCFA CMD-channel command fails
	// transiently and must be retried by the client.
	Cmd float64

	// DMADelay and DMAAbort govern the PCIe layer: a delayed DMA
	// completes late by DMADelayTime; an aborted one fails with a
	// typed error and copies nothing.
	DMADelay float64
	DMAAbort float64

	// MaxSendRetries bounds transport-level replays of a single WR
	// before the owning request fails with a TransportError.
	MaxSendRetries int
}

// The recovery timings every fault plan uses.
const (
	// DMADelayTime is how late a delayed DMA completes.
	DMADelayTime = 20 * sim.Microsecond
	// CmdBackoff is the DCFA client's first wait before retrying a
	// rejected CMD-channel command; each retry doubles it, up to
	// CmdBackoffCap.
	CmdBackoff    = 2 * sim.Microsecond
	CmdBackoffCap = 64 * sim.Microsecond
	// CmdDeadline is one CMD call's budget, retries included, before it
	// fails with a CmdTimeoutError.
	CmdDeadline = 10 * sim.Millisecond
)

// NewPlan returns a plan with the given seed, all rates zero, and the
// default replay budget.
func NewPlan(seed uint64) *Plan {
	return &Plan{Seed: seed, IBDelivered: 0.5, MaxSendRetries: 8}
}

// Parse builds a Plan from a comma-separated spec like
//
//	seed=7,rate=0.01
//	seed=7,ib=0.02,cmd=0.05,dma=0.01,dma-abort=0.005
//
// "rate" is a blanket knob that sets ib, cmd, and dma-delay together;
// layer-specific keys override it, and max-retries sets the replay
// budget. An empty spec is an error; use a nil *Plan (or no -faults
// flag) for "no faults".
func Parse(spec string) (*Plan, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("faults: empty spec")
	}
	p := NewPlan(1)
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("faults: %q is not key=value", field)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseUint(val, 0, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: seed %q: %v", val, err)
			}
			p.Seed = n
		case "rate":
			r, err := parseRate(key, val)
			if err != nil {
				return nil, err
			}
			p.IBError, p.Cmd, p.DMADelay = r, r, r
		case "ib":
			r, err := parseRate(key, val)
			if err != nil {
				return nil, err
			}
			p.IBError = r
		case "ib-delivered":
			r, err := parseRate(key, val)
			if err != nil {
				return nil, err
			}
			p.IBDelivered = r
		case "cmd":
			r, err := parseRate(key, val)
			if err != nil {
				return nil, err
			}
			p.Cmd = r
		case "dma":
			r, err := parseRate(key, val)
			if err != nil {
				return nil, err
			}
			p.DMADelay = r
		case "dma-abort":
			r, err := parseRate(key, val)
			if err != nil {
				return nil, err
			}
			p.DMAAbort = r
		case "max-retries":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("faults: max-retries %q", val)
			}
			p.MaxSendRetries = n
		default:
			return nil, fmt.Errorf("faults: unknown key %q", key)
		}
	}
	return p, nil
}

func parseRate(key, val string) (float64, error) {
	r, err := strconv.ParseFloat(val, 64)
	if err != nil || r < 0 || r > 1 {
		return 0, fmt.Errorf("faults: %s=%q is not a rate in [0,1]", key, val)
	}
	return r, nil
}

// Per-layer stream salts. Each decision stream hashes with its own
// salt so adding decisions to one layer never shifts another layer's
// sequence.
const (
	streamIB  = 0x1b
	streamCmd = 0xcd
	streamDMA = 0xd3
	streamAux = 0xa0
)

// Injector makes fault decisions for one engine run. Decision methods
// are nil-receiver-safe (no fault); counters record what was injected
// so tests can cross-check recovery metrics against injections.
type Injector struct {
	eng  *sim.Engine
	plan *Plan

	// Per-stream decision counters (deterministic state, not telemetry).
	nIB, nCmd, nDMA uint64

	// Injection tallies, exported for test assertions. These count
	// decisions taken, so e.g. core's faults.retries counter must end
	// equal to the number of recovered IBFaults.
	IBFaults   int64 // RDMA WRs flipped to error
	IBDropped  int64 // errored writes whose payload was NOT delivered
	CmdFaults  int64 // CMD commands transiently rejected
	DMADelayed int64 // DMA transfers delayed
	DMAAborted int64 // DMA transfers aborted
}

// New builds an injector for the plan. A nil plan yields a nil
// injector (fully inert).
func New(eng *sim.Engine, plan *Plan) *Injector {
	if plan == nil {
		return nil
	}
	return &Injector{eng: eng, plan: plan}
}

// splitmix64 finalizer over a decision's identity.
func mix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// roll draws a uniform float in [0,1) for stream decision n at the
// current virtual time.
func (i *Injector) roll(stream, n uint64) float64 {
	z := mix(i.plan.Seed ^ mix(stream))
	z = mix(z + n*0x9E3779B97F4A7C15 + uint64(i.eng.Now())*0x2545F4914F6CDD1D)
	return float64(z>>11) / (1 << 53)
}

// Enabled reports whether any layer has a nonzero rate. Nil-safe.
func (i *Injector) Enabled() bool {
	if i == nil {
		return false
	}
	p := i.plan
	return p.IBError > 0 || p.Cmd > 0 || p.DMADelay > 0 || p.DMAAbort > 0
}

// IBWriteFault decides the fate of one posted RDMA write: fault=true
// flips its completion to an error and errors the QP; delivered
// reports whether the payload still landed before the failure.
func (i *Injector) IBWriteFault() (fault, delivered bool) {
	if i == nil || i.plan.IBError <= 0 {
		return false, false
	}
	n := i.nIB
	i.nIB++
	if i.roll(streamIB, n) >= i.plan.IBError {
		return false, false
	}
	i.IBFaults++
	delivered = i.roll(streamAux, n) < i.plan.IBDelivered
	if !delivered {
		i.IBDropped++
	}
	return true, delivered
}

// IBReadFault decides whether one posted RDMA read fails (no data is
// ever written on a failed read).
func (i *Injector) IBReadFault() bool {
	if i == nil || i.plan.IBError <= 0 {
		return false
	}
	n := i.nIB
	i.nIB++
	if i.roll(streamIB, n) >= i.plan.IBError {
		return false
	}
	i.IBFaults++
	i.IBDropped++
	return true
}

// CmdFault decides whether one CMD-channel command is transiently
// rejected by the host daemon.
func (i *Injector) CmdFault() bool {
	if i == nil || i.plan.Cmd <= 0 {
		return false
	}
	n := i.nCmd
	i.nCmd++
	if i.roll(streamCmd, n) >= i.plan.Cmd {
		return false
	}
	i.CmdFaults++
	return true
}

// DMAFault decides the fate of one DMA transfer: a nonzero delay adds
// to its completion time; abort=true fails it with no bytes copied.
func (i *Injector) DMAFault() (delay sim.Duration, abort bool) {
	if i == nil || (i.plan.DMADelay <= 0 && i.plan.DMAAbort <= 0) {
		return 0, false
	}
	n := i.nDMA
	i.nDMA++
	r := i.roll(streamDMA, n)
	if r < i.plan.DMAAbort {
		i.DMAAborted++
		return 0, true
	}
	if r < i.plan.DMAAbort+i.plan.DMADelay {
		i.DMADelayed++
		return DMADelayTime, false
	}
	return 0, false
}

// MaxRetries is the transport replay budget per WR. Nil-safe.
func (i *Injector) MaxRetries() int {
	if i == nil {
		return 0
	}
	return i.plan.MaxSendRetries
}
