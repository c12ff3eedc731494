// Package dcfa implements the paper's Direct Communication Facility for
// Accelerators as a user-space library on the co-processor:
//
//   - DCFA IB IF (MicVerbs): the same verbs the host has. Resource
//     functions (PD, CQ, QP creation, memory registration) delegate
//     their host-assisted work to the DCFA CMD server over the SCIF
//     channel; the data path (post send/recv, poll) writes the simulated
//     HCA directly with co-processor-side costs.
//   - DCFA CMD client/server: the delegation protocol. The server keeps
//     every object created for the co-processor in a hash table and
//     publishes a handle ("hash key") for later reuse, as §IV-B1
//     describes.
//   - The offloading send-buffer extension (§IV-B4): RegOffloadMR
//     allocates and registers a host-side bounce buffer, SyncOffloadMR
//     stages the latest co-processor data into it through the Phi's DMA
//     engine, and DeregOffloadMR releases both sides.
package dcfa

import (
	"fmt"

	"repro/internal/causal"
	"repro/internal/faults"
	"repro/internal/ib"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/pcie"
	"repro/internal/perfmodel"
	"repro/internal/scif"
	"repro/internal/sim"
)

// Command kinds on the DCFA CMD channel.
const (
	CmdOpenDev = iota + 1
	CmdAllocPD
	CmdCreateCQ
	CmdCreateQP
	CmdRegMR
	CmdDeregMR
	CmdRegOffloadMR
	CmdDeregOffloadMR
)

// cmdName maps a command kind to its telemetry name.
func cmdName(kind int) string {
	switch kind {
	case CmdOpenDev:
		return "open-dev"
	case CmdAllocPD:
		return "alloc-pd"
	case CmdCreateCQ:
		return "create-cq"
	case CmdCreateQP:
		return "create-qp"
	case CmdRegMR:
		return "reg-mr"
	case CmdDeregMR:
		return "dereg-mr"
	case CmdRegOffloadMR:
		return "reg-offload-mr"
	case CmdDeregOffloadMR:
		return "dereg-offload-mr"
	default:
		return "unknown"
	}
}

// cmdFail is the reply payload for a transiently rejected command: the
// simulation analogue of a dropped or NAKed SCIF exchange. The client
// retries with backoff until its deadline.
type cmdFail struct{}

// CmdTimeoutError reports that a delegated CMD-channel command did not
// succeed within the fault plan's virtual-time deadline, including
// retries. It is distinct from sim.DeadlockError: the rank exits with
// a typed failure instead of hanging the engine.
type CmdTimeoutError struct {
	Cmd     string       // command name, e.g. "reg-mr"
	Tries   int          // attempts made (initial call + retries)
	Elapsed sim.Duration // virtual time spent, first attempt to give-up
}

func (e *CmdTimeoutError) Error() string {
	return fmt.Sprintf("dcfa: cmd %s timed out after %d tries (%v)", e.Cmd, e.Tries, e.Elapsed)
}

type regMRReq struct {
	dom  *machine.Domain
	addr uint64
	n    int
	pd   *ib.PD
}

type regMRResp struct {
	mr     *ib.MR
	handle uint64
	err    error
}

type regOffloadReq struct{ size int }

type regOffloadResp struct {
	omr *OffloadMR
	err error
}

// OffloadMR is an offloading memory region: a host bounce buffer plus
// its InfiniBand registration, fronting a co-processor send buffer.
type OffloadMR struct {
	Handle   uint64
	Size     int
	HostBuf  *machine.Buffer
	HostMR   *ib.MR
	released bool
}

// HostDaemon is the DCFA CMD server: the host delegation process
// extension that executes host InfiniBand functions on behalf of the
// co-processor.
type HostDaemon struct {
	Eng  *sim.Engine
	Plat *perfmodel.Platform
	Node *machine.Node
	HCA  *ib.HCA
	Bus  *pcie.Bus

	ep      *scif.Endpoint
	hostCtx *ib.Context
	hostPD  *ib.PD

	// objects is the hash table of everything created for the
	// co-processor, keyed by published handle.
	objects    map[uint64]any
	nextHandle uint64

	// Telemetry (nil / "" when metrics are disabled).
	metrics *metrics.Registry
	actor   string

	// faults injects transient CMD-channel rejections (nil = sunny day).
	faults *faults.Injector
}

// serve is the daemon main loop.
func (d *HostDaemon) serve(p *sim.Proc) {
	p.MarkDaemon()
	for {
		msg := d.ep.Recv(p)
		if d.faults.CmdFault() {
			// Transient failure: reject before doing any host work. The
			// client's retry makes this invisible to callers (modulo
			// time) unless the deadline runs out first.
			if d.metrics != nil {
				d.metrics.Counter(d.actor, "rejected."+cmdName(msg.Kind)).Inc()
			}
			d.ep.Send(msg.Kind, cmdFail{})
			continue
		}
		if d.metrics != nil {
			d.metrics.Counter(d.actor, "served."+cmdName(msg.Kind)).Inc()
		}
		switch msg.Kind {
		case CmdOpenDev, CmdAllocPD, CmdCreateCQ, CmdCreateQP:
			// Host-side resource creation work; the objects themselves
			// live in co-processor context so the data path keeps
			// co-processor costs.
			p.Sleep(d.Plat.HostVerbsCallCost)
			d.nextHandle++
			d.ep.Send(msg.Kind, d.nextHandle)

		case CmdRegMR:
			req := msg.Payload.(regMRReq)
			// The modified host IB core maps and pins co-processor
			// pages: host registration cost plus the mapping extra.
			mr, err := d.hostCtx.RegMR(p, req.pd, req.dom, req.addr, req.n)
			if err != nil {
				d.ep.Send(CmdRegMR, regMRResp{err: err})
				continue
			}
			p.Sleep(d.Plat.DelegationExtra)
			d.nextHandle++
			d.objects[d.nextHandle] = mr
			d.ep.Send(CmdRegMR, regMRResp{mr: mr, handle: d.nextHandle})

		case CmdDeregMR:
			handle := msg.Payload.(uint64)
			mr, ok := d.objects[handle].(*ib.MR)
			if !ok {
				d.ep.Send(CmdDeregMR, fmt.Errorf("dcfa: unknown MR handle %d", handle))
				continue
			}
			err := d.hostCtx.DeregMR(p, mr)
			delete(d.objects, handle)
			d.ep.Send(CmdDeregMR, err)

		case CmdRegOffloadMR:
			req := msg.Payload.(regOffloadReq)
			// Registered whole but written only as far as the sends it
			// stages reach: reserved pages are backed on first touch.
			buf := d.Node.Host.Reserve(req.size)
			mr, err := d.hostCtx.RegMR(p, d.hostPD, d.Node.Host, buf.Addr, req.size)
			if err != nil {
				d.Node.Host.Free(buf)
				d.ep.Send(CmdRegOffloadMR, regOffloadResp{err: err})
				continue
			}
			d.nextHandle++
			omr := &OffloadMR{Handle: d.nextHandle, Size: req.size, HostBuf: buf, HostMR: mr}
			d.objects[d.nextHandle] = omr
			d.ep.Send(CmdRegOffloadMR, regOffloadResp{omr: omr})

		case CmdDeregOffloadMR:
			handle := msg.Payload.(uint64)
			omr, ok := d.objects[handle].(*OffloadMR)
			if !ok {
				d.ep.Send(CmdDeregOffloadMR, fmt.Errorf("dcfa: unknown offload MR handle %d", handle))
				continue
			}
			err := d.hostCtx.DeregMR(p, omr.HostMR)
			d.Node.Host.Free(omr.HostBuf)
			omr.released = true
			delete(d.objects, handle)
			d.ep.Send(CmdDeregOffloadMR, err)

		default:
			d.ep.Send(msg.Kind, fmt.Errorf("dcfa: unknown command %d", msg.Kind))
		}
	}
}

// LiveObjects reports how many delegated objects the hash table holds.
func (d *HostDaemon) LiveObjects() int { return len(d.objects) }

// MicVerbs is the DCFA IB IF: the InfiniBand verbs interface available
// to co-processor user space, uniform with the host's.
type MicVerbs struct {
	Eng  *sim.Engine
	Plat *perfmodel.Platform
	Node *machine.Node
	HCA  *ib.HCA
	Bus  *pcie.Bus

	ep  *scif.Endpoint
	ctx *ib.Context
	// cmd admits one command to ep at a time, in arrival order: a lazy
	// connect drives this interface from the peer rank's process too,
	// and two requests in flight would take each other's reply.
	cmd *sim.Semaphore

	daemon *HostDaemon

	// mrHandles maps each live delegated registration to the handle the
	// daemon published for it, which DeregMR ships back.
	mrHandles map[*ib.MR]uint64

	// Telemetry (nil / "" when metrics are disabled).
	metrics *metrics.Registry
	actor   string

	// faults supplies the CMD retry policy and drives the daemon's
	// rejections (nil = sunny day).
	faults *faults.Injector

	// causal, when non-nil, receives one EvCmdDone per completed
	// delegated command, attributed to causalRank's timeline (the CMD
	// round trip runs in the rank's process context).
	causal     *causal.Recorder
	causalRank int32
}

// SetMetrics installs (or removes, with nil) the telemetry registry on
// both the co-processor verbs interface and its host daemon. Each
// delegated command records a count, a round-trip latency histogram and
// a span on the "dcfa/node<N>" track; the daemon counts commands served
// on "dcfad/node<N>".
func (v *MicVerbs) SetMetrics(reg *metrics.Registry) {
	v.metrics = reg
	v.daemon.metrics = reg
	if reg != nil {
		v.actor = fmt.Sprintf("dcfa/node%d", v.Node.ID)
		v.daemon.actor = fmt.Sprintf("dcfad/node%d", v.Node.ID)
	}
}

// SetCausal installs (or removes, with nil) the causal-event recorder.
// rank is the MPI rank this verbs interface serves; completed CMD
// round trips land on that rank's causal timeline as EvCmdDone.
func (v *MicVerbs) SetCausal(rec *causal.Recorder, rank int) {
	v.causal = rec
	v.causalRank = int32(rank)
}

// SetFaults installs (or removes, with nil) the fault injector on both
// the co-processor verbs interface and its host daemon. Install it
// before issuing commands; the client side reads its retry policy from
// the same plan that drives the daemon's rejections.
func (v *MicVerbs) SetFaults(inj *faults.Injector) {
	v.faults = inj
	v.daemon.faults = inj
}

// New wires up DCFA on one node: it spawns the host delegation daemon
// and returns the co-processor-side verbs interface.
func New(eng *sim.Engine, plat *perfmodel.Platform, node *machine.Node, hca *ib.HCA, bus *pcie.Bus) (*MicVerbs, *HostDaemon) {
	pair := scif.NewPair(eng, plat)
	d := &HostDaemon{
		Eng: eng, Plat: plat, Node: node, HCA: hca, Bus: bus,
		ep: pair.Host, hostCtx: hca.Open(machine.HostMem),
		objects: make(map[uint64]any),
	}
	d.hostPD = d.hostCtx.AllocPD()
	eng.Spawn(fmt.Sprintf("dcfa-daemon/node%d", node.ID), d.serve)
	v := &MicVerbs{
		Eng: eng, Plat: plat, Node: node, HCA: hca, Bus: bus,
		ep: pair.Mic, ctx: hca.Open(machine.MicMem), cmd: sim.NewSemaphore(eng, 1), daemon: d,
		mrHandles: make(map[*ib.MR]uint64),
	}
	return v, d
}

// Context exposes the co-processor verbs context (post/poll costs are
// co-processor-side).
func (v *MicVerbs) Context() *ib.Context { return v.ctx }

// call performs one delegated command round trip, retrying transient
// rejections with capped exponential backoff until faults.CmdDeadline
// of virtual time has passed. The sunny-day path (no injector, no
// rejection) is a single Call with no extra timing.
func (v *MicVerbs) call(p *sim.Proc, kind int, payload any) (scif.Msg, error) {
	name := cmdName(kind)
	start := p.Now()
	var sp *metrics.Span
	if v.metrics != nil {
		sp = v.metrics.Begin(start, v.actor, "cmd."+name)
	}
	backoff, deadline := faults.CmdBackoff, start+faults.CmdDeadline
	tries := 0
	for {
		v.cmd.Acquire(p)
		resp := v.ep.Call(p, kind, payload)
		v.cmd.Release()
		tries++
		if _, rejected := resp.Payload.(cmdFail); !rejected {
			now := p.Now()
			if v.metrics != nil {
				sp.End(now)
				v.metrics.Counter(v.actor, "cmd."+name).Inc()
				v.metrics.Histogram(v.actor, "cmd-rtt."+name, metrics.TimeBuckets).ObserveDuration(now - start)
			}
			v.causal.Emit(causal.Event{T: now, Kind: causal.EvCmdDone,
				Rank: v.causalRank, Peer: -1, Tag: int32(kind), Aux: uint64(now - start)})
			return resp, nil
		}
		// Transient rejection: back off and retry, unless the next
		// attempt could not even start before the deadline.
		if p.Now()+backoff >= deadline {
			if v.metrics != nil {
				sp.End(p.Now())
				v.metrics.Counter(v.actor, "cmd.timeouts").Inc()
			}
			return scif.Msg{}, &CmdTimeoutError{Cmd: name, Tries: tries, Elapsed: p.Now() - start}
		}
		if v.metrics != nil {
			v.metrics.Counter(v.actor, "cmd.retries").Inc()
		}
		p.Sleep(backoff)
		backoff *= 2
		backoff = min(backoff, faults.CmdBackoffCap)
	}
}

// OpenDevice performs the delegated device/context setup.
func (v *MicVerbs) OpenDevice(p *sim.Proc) error {
	_, err := v.call(p, CmdOpenDev, nil)
	return err
}

// AllocPD allocates a protection domain (host-assisted).
func (v *MicVerbs) AllocPD(p *sim.Proc) (*ib.PD, error) {
	if _, err := v.call(p, CmdAllocPD, nil); err != nil {
		return nil, err
	}
	return v.ctx.AllocPD(), nil
}

// CreateCQ creates a completion queue (host-assisted structures, polled
// directly from the co-processor).
func (v *MicVerbs) CreateCQ(p *sim.Proc, depth int) (*ib.CQ, error) {
	if _, err := v.call(p, CmdCreateCQ, nil); err != nil {
		return nil, err
	}
	return v.ctx.CreateCQ(depth), nil
}

// CreateQP creates an RC queue pair (host-assisted structures, doorbell
// rung directly from the co-processor).
func (v *MicVerbs) CreateQP(p *sim.Proc, pd *ib.PD, sendCQ, recvCQ *ib.CQ) (*ib.QP, error) {
	if _, err := v.call(p, CmdCreateQP, nil); err != nil {
		return nil, err
	}
	return v.ctx.CreateQP(pd, sendCQ, recvCQ), nil
}

// RegMR registers co-processor memory: the CMD client translates the
// buffer address and ships the request to the host, which maps and pins
// the pages. This is the expensive path the paper's MR cache exists for.
func (v *MicVerbs) RegMR(p *sim.Proc, pd *ib.PD, dom *machine.Domain, addr uint64, n int) (*ib.MR, error) {
	resp, err := v.call(p, CmdRegMR, regMRReq{dom: dom, addr: addr, n: n, pd: pd})
	if err != nil {
		return nil, err
	}
	r := resp.Payload.(regMRResp)
	if r.err == nil {
		v.mrHandles[r.mr] = r.handle
	}
	return r.mr, r.err
}

// RegMRBuffer registers a whole buffer.
func (v *MicVerbs) RegMRBuffer(p *sim.Proc, pd *ib.PD, b *machine.Buffer) (*ib.MR, error) {
	return v.RegMR(p, pd, b.Dom, b.Addr, len(b.Data))
}

// DeregMR releases a delegated registration by the handle the daemon
// published when RegMR created it.
func (v *MicVerbs) DeregMR(p *sim.Proc, mr *ib.MR) error {
	handle, ok := v.mrHandles[mr]
	if !ok {
		return fmt.Errorf("dcfa: MR not delegated")
	}
	resp, err := v.call(p, CmdDeregMR, handle)
	if err != nil {
		return err
	}
	if err, ok := resp.Payload.(error); ok && err != nil {
		return err
	}
	delete(v.mrHandles, mr)
	return nil
}

// SupportsOffload reports that the three offload send-buffer verbs
// below are available: core.Verbs asks every provider.
func (v *MicVerbs) SupportsOffload() bool { return true }

// RegOffloadMR allocates a host bounce buffer of the given size,
// registers it on the host, and returns the region usable for later
// sends (the paper's reg_offload_mr).
func (v *MicVerbs) RegOffloadMR(p *sim.Proc, size int) (*OffloadMR, error) {
	resp, err := v.call(p, CmdRegOffloadMR, regOffloadReq{size: size})
	if err != nil {
		return nil, err
	}
	r := resp.Payload.(regOffloadResp)
	return r.omr, r.err
}

// SyncOffloadMR stages src (co-processor data) into the host bounce
// buffer at offset off through the Phi DMA engine (sync_offload_mr).
// After it returns, a send from the host buffer carries the latest data.
func (v *MicVerbs) SyncOffloadMR(p *sim.Proc, omr *OffloadMR, off int, src []byte) error {
	if omr.released {
		return fmt.Errorf("dcfa: sync on released offload MR %d", omr.Handle)
	}
	if off < 0 || off+len(src) > omr.Size {
		return fmt.Errorf("dcfa: sync range [%d,+%d) outside offload MR of %d bytes", off, len(src), omr.Size)
	}
	if err := v.Bus.DMACopy(p, omr.HostBuf.Data[off:off+len(src)], src); err != nil {
		return fmt.Errorf("dcfa: sync offload MR %d: %w", omr.Handle, err)
	}
	return nil
}

// DeregOffloadMR destroys the offloading region on the co-processor
// side, deregisters the host memory region and frees the host buffer
// (dereg_offload_mr).
func (v *MicVerbs) DeregOffloadMR(p *sim.Proc, omr *OffloadMR) error {
	resp, err := v.call(p, CmdDeregOffloadMR, omr.Handle)
	if err != nil {
		return err
	}
	if err, ok := resp.Payload.(error); ok && err != nil {
		return err
	}
	return nil
}
