package core

import (
	"errors"
	"fmt"

	"repro/internal/causal"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config tunes the MPI library.
type Config struct {
	// EagerMax is the eager/rendezvous protocol switch in bytes.
	EagerMax int
	// EagerSlots is the per-peer eager ring depth.
	EagerSlots int
	// MRCacheCap is the buffer cache pool capacity.
	MRCacheCap int
	// Offload enables the offloading send-buffer design (only effective
	// on providers that support it).
	Offload bool
	// OffloadMinSize is the message size at which offloading starts
	// ("an offloading send buffer starting from 8Kbytes shows the best
	// performance").
	OffloadMinSize int
	// OffloadArena is the persistent offload MR size per rank.
	OffloadArena int
	// OffloadDatatypePack delegates noncontiguous datatype packing to
	// the host CPU through the DCFA-MPI CMD channel — the offload the
	// paper's future-work section proposes for "communication using
	// user defined data types".
	OffloadDatatypePack bool
	// OffloadPackMinSize is the packed-size threshold above which the
	// delegation pays off (below it the command round trip dominates).
	OffloadPackMinSize int
	// Trace, when non-nil, records protocol events on the virtual
	// timeline (protocol selection, handshakes, credits).
	Trace *trace.Recorder
	// Metrics, when non-nil, records per-rank counters, latency
	// histograms and message-lifecycle spans. Instrumentation is
	// passive and virtual-time-only: enabling it must not change the
	// engine's event sequence (see internal/metrics).
	Metrics *metrics.Registry
	// Causal, when non-nil, records structured lifecycle events for
	// the cross-rank causal profiler (internal/causal). Recording is
	// passive — value appends only, no engine interaction — so enabling
	// it must not change the fingerprint.
	Causal *causal.Recorder

	// ConnectMode selects bootstrap wiring. "eager" builds every
	// peer-pair endpoint (QP and eager ring) up front — the
	// historical all-pairs behavior, O(n²) resources across the job.
	// "lazy" creates a pair's endpoints on both ranks at the pair's
	// first Isend/Irecv, which is what makes thousand-rank jobs whose
	// communication graph is sparse (ring, tree) feasible. "" or
	// "auto" picks lazy at LazyConnectMin ranks and above.
	ConnectMode string

	// CollAllreduce, CollBcast, CollBarrier and CollAlltoall pin the
	// collective algorithm ("" = size/topology-driven auto selection).
	// Recognized names: allreduce "naive"|"ring"|"rd"; bcast
	// "binomial"|"scatter-allgather"; barrier "dissemination"|"tree";
	// alltoall "pairwise"|"linear".
	CollAllreduce string
	CollBcast     string
	CollBarrier   string
	CollAlltoall  string
}

// LazyConnectMin is the world size at which ConnectMode "auto"
// switches from eager all-pairs bootstrap to lazy pairwise connect.
const LazyConnectMin = 16

// lazyConnect resolves the effective connect mode.
func (w *World) lazyConnect() bool {
	switch w.Cfg.ConnectMode {
	case "lazy":
		return true
	case "eager":
		return false
	default:
		return w.Size() >= LazyConnectMin
	}
}

// ConfigFromPlatform returns the paper-tuned configuration: the one
// place its defaults come from. They are the protocol's choices, not
// measured costs, so no calibration moves them and plat is not read;
// the parameter stays because callers outside this module build their
// worlds through this signature.
func ConfigFromPlatform(plat *perfmodel.Platform) Config {
	return Config{
		// The eager/rendezvous switch sits at the offload threshold, so
		// every rendezvous message is large enough to offload.
		EagerMax:   8192,
		EagerSlots: 64,
		MRCacheCap: 64,
		Offload:    true,
		// "An offloading send buffer starting from 8Kbytes shows the
		// best performance."
		OffloadMinSize: 8192,
		OffloadArena:   16 << 20,
		// Where the delegated pack's command round trip amortizes.
		OffloadPackMinSize: 16 << 10,
	}
}

// Env is the per-rank environment: the verbs provider the rank runs
// over. The node it runs on is its memory domain's (V.Domain().Node).
type Env struct {
	V Verbs
}

// World is one MPI job.
type World struct {
	Eng   *sim.Engine
	Plat  *perfmodel.Platform
	Cfg   Config
	envs  []Env
	ranks []*Rank

	syncN   int
	syncSig sim.Signal
	errs    []error

	// connInFlight serializes lazy pair bootstrap: the first rank to
	// touch a pair claims it here and builds both halves; a rank
	// reaching ensurePeer for the same pair mid-build waits on the
	// claim's signal instead of double-creating QPs (keyed lo-rank,
	// hi-rank).
	connInFlight map[[2]int]*sim.Signal
}

// NewWorld builds a world of len(envs) ranks. cfg is taken as given,
// so callers start from ConfigFromPlatform (or cluster.Config) and tune.
func NewWorld(eng *sim.Engine, plat *perfmodel.Platform, cfg Config, envs []Env) *World {
	if cfg.EagerSlots < 2 {
		// One slot per direction is reserved for credit returns, so
		// rings need at least two slots to make progress.
		cfg.EagerSlots = 2
	}
	w := &World{Eng: eng, Plat: plat, Cfg: cfg, envs: envs}
	w.connInFlight = make(map[[2]int]*sim.Signal)
	for i, e := range envs {
		r := &Rank{w: w, id: i, v: e.V}
		r.world = Comm{group{r: r, n: len(envs), myRank: i}}
		r.group = &r.world.group
		w.ranks = append(w.ranks, r)
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank i (available after Run started it; mainly for
// inspection in tests and reports).
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// hostSync is the out-of-band bootstrap barrier (the process manager's
// job, not MPI traffic). Every rank must call it the same number of
// times. The last rank to arrive broadcasts, so every other one is
// already parked on the signal.
func (w *World) hostSync(p *sim.Proc) {
	w.syncN++
	if w.syncN == len(w.ranks) {
		w.syncN = 0
		w.syncSig.Broadcast()
		return
	}
	w.syncSig.Wait(p)
}

// Launch spawns all rank processes running body. The caller drives the
// engine (allowing multiple worlds or extra processes on one engine).
func (w *World) Launch(body func(r *Rank) error) {
	w.errs = make([]error, len(w.ranks))
	for i := range w.ranks {
		rank := w.ranks[i]
		w.Eng.Spawn(fmt.Sprintf("mpi-rank%d", rank.id), func(p *sim.Proc) {
			rank.proc = p
			if err := rank.setup(p); err != nil {
				w.errs[rank.id] = fmt.Errorf("rank %d setup: %w", rank.id, err)
				w.hostSync(p) // keep the barrier balanced
				w.hostSync(p)
				return
			}
			w.hostSync(p)
			if err := rank.connect(p); err != nil {
				w.errs[rank.id] = fmt.Errorf("rank %d connect: %w", rank.id, err)
				w.hostSync(p)
				return
			}
			w.hostSync(p)
			err := body(rank)
			if err == nil {
				rank.finalize(p)
			}
			if leak := rank.leaked(); leak != nil {
				err = errors.Join(err, leak)
			}
			if err != nil {
				w.errs[rank.id] = fmt.Errorf("rank %d: %w", rank.id, err)
			}
		})
	}
}

// Run launches the ranks, runs the engine to completion and returns the
// first error. A rank error and an engine error (e.g. the deadlock a
// failed rank leaves behind) are joined so callers can match either
// with errors.As. Each rank's exit check is in its error; when the
// engine drains cleanly, so is each adapter's registration ledger
// (leak.go). Every buffer reserved on the world's nodes is world-
// lifetime, so Run then gives their pages back (discard).
func (w *World) Run(body func(r *Rank) error) error {
	defer w.discard()
	return w.run(body)
}

// run is Run without the discard: the reserved buffers (eager rings
// among them) keep the bytes the run left in them.
func (w *World) run(body func(r *Rank) error) error {
	hcas, base := w.adapters()
	w.Launch(body)
	engErr := w.Eng.Run()
	var rankErr error
	for _, err := range w.errs {
		if err != nil {
			rankErr = err
			break
		}
	}
	if engErr == nil {
		if leak := w.unowned(hcas, base); leak != nil {
			rankErr = errors.Join(rankErr, leak)
		}
	}
	if engErr != nil && rankErr != nil {
		return errors.Join(rankErr, engErr)
	}
	if engErr != nil {
		return engErr
	}
	return rankErr
}

// discard gives back the pages of everything reserved on the nodes the
// ranks run on: nothing reads them again (a later Run sets every rank up
// afresh), and a program that allocates little may never run the
// collection that would find them unreachable.
func (w *World) discard() {
	done := make(map[*machine.Node]bool)
	for _, e := range w.envs {
		n := e.V.Domain().Node
		if done[n] {
			continue
		}
		done[n] = true
		n.Host.DiscardReserved()
		n.Mic.DiscardReserved()
	}
}

// Errs exposes the per-rank errors after Run.
func (w *World) Errs() []error { return w.errs }
