// Package dcfampi is the public face of the DCFA-MPI reproduction: an
// MPI library for simulated Intel Xeon Phi clusters with direct
// co-processor-to-co-processor InfiniBand communication, plus the two
// Intel MPI baseline modes the paper evaluates against.
//
// A minimal program:
//
//	job := dcfampi.New(dcfampi.ModeDCFA, 2, nil)
//	err := job.Run(func(r *dcfampi.Rank) error {
//		p := r.Proc()
//		buf := r.Mem(1024)
//		if r.ID() == 0 {
//			return r.Send(p, 1, 0, dcfampi.Whole(buf))
//		}
//		_, err := r.Recv(p, 0, 0, dcfampi.Whole(buf))
//		return err
//	})
//
// Every rank is a deterministic simulated process; r.Now() reads the
// virtual clock, which is how all measurements in the benchmarks are
// taken.
package dcfampi

import (
	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// Re-exported core types: the full MPI API lives on Rank.
type (
	// Rank is one MPI process; see repro/internal/core for the method
	// set (Send/Recv, Isend/Irecv/Wait, collectives, Mem).
	Rank = core.Rank
	// Request is a nonblocking operation handle.
	Request = core.Request
	// Slice addresses a range of rank-local device memory.
	Slice = core.Slice
	// Status reports a completed receive.
	Status = core.Status
	// Proc is the simulated process handle passed to MPI calls.
	Proc = sim.Proc
	// Buffer is rank-local device memory from Rank.Mem.
	Buffer = machine.Buffer
	// Op is a reduction operator.
	Op = core.Op
	// Platform is the calibrated hardware model.
	Platform = perfmodel.Platform
	// Time and Duration are virtual-clock readings.
	Time = sim.Time
	// OffloadDevice is the co-processor handle in ModeHostOffload.
	OffloadDevice = baseline.OffloadDevice
	// Comm is a communicator: the world group (Rank.CommWorld) or a
	// Comm.Split of one.
	Comm = core.Comm
	// Datatype describes strided (vector) layouts for typed transfers.
	Datatype = core.Datatype
)

// Vector and Contiguous construct datatypes; see core.Datatype.
func Vector(count, blockLen, stride, elemSize int) Datatype {
	return core.Vector(count, blockLen, stride, elemSize)
}

func Contiguous(n, elemSize int) Datatype { return core.Contiguous(n, elemSize) }

// Wildcards and reduction operators, re-exported.
var (
	OpSumF64 = core.OpSumF64
	OpMaxF64 = core.OpMaxF64
	OpMinF64 = core.OpMinF64
	OpSumI64 = core.OpSumI64
)

const (
	AnySource = core.AnySource
	AnyTag    = core.AnyTag
)

// Whole wraps an entire buffer as a Slice.
func Whole(b *Buffer) Slice { return core.Whole(b) }

// PutF64s / GetF64s move float64 values in and out of device memory.
func PutF64s(b []byte, vs []float64)    { core.PutF64s(b, vs) }
func GetF64s(b []byte, n int) []float64 { return core.GetF64s(b, n) }

// DefaultPlatform returns the Table I calibration.
func DefaultPlatform() *Platform { return perfmodel.Default() }

// Mode selects the execution model; String prints the spelling every
// -mode flag accepts.
type Mode = cluster.Mode

const (
	// ModeDCFA is DCFA-MPI with the offloading send-buffer design —
	// the paper's contribution.
	ModeDCFA = cluster.ModeDCFA
	// ModeDCFABase is DCFA-MPI without the offload design.
	ModeDCFABase = cluster.ModeDCFABase
	// ModeHostMPI runs the ranks on the Xeons (the YAMPII reference).
	ModeHostMPI = cluster.ModeHost
	// ModeIntelPhi is 'Intel MPI on Xeon Phi co-processors'.
	ModeIntelPhi = cluster.ModeIntelPhi
	// ModeHostOffload is 'Intel MPI on Xeon where it offloads
	// computation to Xeon Phi co-processors'; Job.Devices() returns
	// the per-rank offload handles.
	ModeHostOffload = cluster.ModeHostOffload
	// ModeSymmetric places even ranks on hosts and odd ranks on
	// co-processors, two ranks per node (the third §III-B
	// configuration).
	ModeSymmetric = cluster.ModeSymmetric
)

// Options tunes a Job.
type Options struct {
	// Nodes is the cluster size; defaults to one node per rank.
	Nodes int
	// Platform overrides the default calibration.
	Platform *Platform
}

// Job is one configured MPI run.
type Job struct {
	Mode    Mode
	Ranks   int
	cluster *cluster.Cluster
	world   *core.World
	devices []*OffloadDevice
}

// New builds a job of the given mode and rank count on a fresh
// simulated cluster.
func New(mode Mode, ranks int, opt *Options) *Job {
	if ranks < 1 {
		panic("dcfampi: need at least one rank")
	}
	plat := perfmodel.Default()
	nodes := mode.Nodes(ranks)
	if opt != nil {
		if opt.Platform != nil {
			plat = opt.Platform
		}
		if opt.Nodes > 0 {
			nodes = opt.Nodes
		}
	}
	c := cluster.New(plat, nodes)
	j := &Job{Mode: mode, Ranks: ranks, cluster: c, world: c.World(mode, ranks)}
	if mode == ModeHostOffload {
		j.devices = baseline.Devices(c, ranks)
	}
	return j
}

// Devices returns the per-rank offload handles (ModeHostOffload only).
func (j *Job) Devices() []*OffloadDevice { return j.devices }

// World exposes the underlying MPI world for advanced use.
func (j *Job) World() *core.World { return j.world }

// Run executes body on every rank and drives the simulation to
// completion, returning the first error.
func (j *Job) Run(body func(r *Rank) error) error {
	return j.world.Run(body)
}
