// Package dcfa implements the paper's Direct Communication Facility for
// Accelerators as a user-space library on the co-processor:
//
//   - DCFA IB IF (MicVerbs): the same verbs the host has. Resource
//     functions (PD, CQ, QP creation, memory registration) delegate
//     their host-assisted work to the DCFA CMD server over the SCIF
//     channel; the data path (post send/recv, poll) writes the simulated
//     HCA directly with co-processor-side costs.
//   - DCFA CMD client/server: the delegation protocol. A command is its
//     name plus its host half, which the server runs in its own process
//     and whose result is the reply; each verb writes the two halves
//     side by side. The server keeps every object created for the
//     co-processor in a hash table and publishes a handle ("hash key")
//     for later reuse, as §IV-B1 describes.
//   - Datatype packing offloaded to the host CPU (§VI): Pack is one more
//     command on the same channel.
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

// command is one request on the CMD channel: its telemetry name and
// its host half. The cmd lock admits one command per MicVerbs at a time,
// so each MicVerbs reuses one record and sends it by pointer.
type command struct {
	name string
	host func(p *sim.Proc) any
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
	Plat *perfmodel.Platform
	Node *machine.Node

	// bus is the node's PCIe complex, which the CMD channel crosses: the
	// daemon counts on its registry and rejects by its fault injector.
	bus *pcie.Bus
	// actor is the daemon's telemetry track name ("dcfad/node<N>").
	actor string

	ep      *scif.Endpoint
	hostCtx *ib.Context
	hostPD  *ib.PD

	// objects is the hash table of everything created for the
	// co-processor, keyed by published handle.
	objects    map[uint64]any
	nextHandle uint64
}

// serve is the daemon main loop: it runs each command's host half in
// the daemon's own process and replies with what the host half returns.
func (d *HostDaemon) serve(p *sim.Proc) {
	p.MarkDaemon()
	for {
		msg := d.ep.Recv(p)
		cmd := msg.Payload.(*command)
		reg := d.bus.Metrics
		if d.bus.Faults.CmdFault() {
			// Transient failure: reject before doing any host work. The
			// client's retry makes this invisible to callers (modulo
			// time) unless the deadline runs out first.
			if reg != nil {
				reg.Counter(d.actor, "rejected."+cmd.name).Inc()
			}
			d.ep.Send(msg.Kind, cmdFail{})
			continue
		}
		if reg != nil {
			reg.Counter(d.actor, "served."+cmd.name).Inc()
		}
		d.ep.Send(msg.Kind, cmd.host(p))
	}
}

// create is the host half of PD, CQ and QP creation: host-side resource
// work only, since the objects themselves live in co-processor context
// so that the data path keeps co-processor costs.
func (d *HostDaemon) create(p *sim.Proc) any {
	p.Sleep(d.Plat.HostVerbsCallCost)
	d.nextHandle++
	return nil
}

// publish enters obj in the hash table under a new handle.
func (d *HostDaemon) publish(obj any) uint64 {
	d.nextHandle++
	d.objects[d.nextHandle] = obj
	return d.nextHandle
}

// LiveObjects reports how many delegated objects the hash table holds.
func (d *HostDaemon) LiveObjects() int { return len(d.objects) }

// MicVerbs is the DCFA IB IF: the InfiniBand verbs interface available
// to co-processor user space, uniform with the host's. Its CMD channel
// crosses the node's PCIe complex, Bus, whose sinks it reports to: each
// delegated command records a count, a round-trip latency histogram and
// a span on the "dcfa/node<N>" track of Bus.Metrics, lands on Rank's
// timeline of Bus.Causal, and is rejected by Bus.Faults.
type MicVerbs struct {
	Plat *perfmodel.Platform
	HCA  *ib.HCA
	Bus  *pcie.Bus
	// Rank is the MPI rank this interface serves: completed CMD round
	// trips (which run in the rank's process) land on its causal
	// timeline as EvCmdDone.
	Rank int

	ep  *scif.Endpoint
	ctx *ib.Context
	// cmd admits one command to ep at a time, in arrival order: a lazy
	// connect drives this interface from the peer rank's process too,
	// and two requests in flight would take each other's reply.
	cmd sim.Semaphore

	daemon *HostDaemon
	// req is the one command in flight (the cmd lock holds it until the
	// reply); create is the daemon's create method, bound once so that
	// a creation command allocates no method value.
	req    command
	create func(p *sim.Proc) any

	// mrHandles maps each live delegated registration to the handle the
	// daemon published for it, which DeregMR ships back.
	mrHandles map[*ib.MR]uint64

	// actor is the telemetry track name ("dcfa/node<N>").
	actor string
}

// New wires up DCFA on one node: it spawns the host delegation daemon
// and returns the co-processor-side verbs interface.
func New(eng *sim.Engine, plat *perfmodel.Platform, node *machine.Node, hca *ib.HCA, bus *pcie.Bus) (*MicVerbs, *HostDaemon) {
	pair := scif.NewPair(eng, plat)
	d := &HostDaemon{
		Plat: plat, Node: node, bus: bus, actor: fmt.Sprintf("dcfad/node%d", node.ID),
		ep: pair.Host, hostCtx: hca.Open(machine.HostMem),
		objects: make(map[uint64]any),
	}
	d.hostPD = d.hostCtx.AllocPD()
	eng.Spawn(fmt.Sprintf("dcfa-daemon/node%d", node.ID), d.serve)
	v := &MicVerbs{
		Plat: plat, HCA: hca, Bus: bus,
		ep: pair.Mic, ctx: hca.Open(machine.MicMem),
		daemon: d, create: d.create,
		mrHandles: make(map[*ib.MR]uint64),
		actor:     fmt.Sprintf("dcfa/node%d", node.ID),
	}
	return v, d
}

// call performs one delegated command round trip: the daemon runs host
// in its own process and replies with its result, which call returns
// (an error result as the error). It retries transient rejections with
// capped exponential backoff until faults.CmdDeadline of virtual time
// has passed; a rejected attempt ran no host work, so neither did a
// command that timed out. The sunny-day path (no injector, no
// rejection) is a single Call with no extra timing.
func (v *MicVerbs) call(p *sim.Proc, name string, host func(*sim.Proc) any) (any, error) {
	start := p.Now()
	reg := v.Bus.Metrics
	var sp *metrics.Span
	if reg != nil {
		sp = reg.Begin(start, v.actor, "cmd."+name)
	}
	backoff, deadline := faults.CmdBackoff, start+faults.CmdDeadline
	tries := 0
	for {
		v.cmd.Acquire(p)
		v.req = command{name: name, host: host}
		resp := v.ep.Call(p, 0, &v.req)
		v.cmd.Release()
		tries++
		if _, rejected := resp.Payload.(cmdFail); !rejected {
			now := p.Now()
			if reg != nil {
				sp.End(now)
				reg.Counter(v.actor, "cmd."+name).Inc()
				reg.Histogram(v.actor, "cmd-rtt."+name).ObserveDuration(now - start)
			}
			v.Bus.Causal.Emit(causal.Event{T: now, Kind: causal.EvCmdDone,
				Rank: int32(v.Rank), Peer: -1, Aux: uint64(now - start)})
			if err, ok := resp.Payload.(error); ok {
				return nil, err
			}
			return resp.Payload, nil
		}
		// Transient rejection: back off and retry, unless the next
		// attempt could not even start before the deadline.
		if p.Now()+backoff >= deadline {
			if reg != nil {
				sp.End(p.Now())
				reg.Counter(v.actor, "cmd.timeouts").Inc()
			}
			return nil, &CmdTimeoutError{Cmd: name, Tries: tries, Elapsed: p.Now() - start}
		}
		if reg != nil {
			reg.Counter(v.actor, "cmd.retries").Inc()
		}
		p.Sleep(backoff)
		backoff *= 2
		backoff = min(backoff, faults.CmdBackoffCap)
	}
}

// AllocPD allocates a protection domain (host-assisted).
func (v *MicVerbs) AllocPD(p *sim.Proc) (*ib.PD, error) {
	if _, err := v.call(p, "alloc-pd", v.create); err != nil {
		return nil, err
	}
	return v.ctx.AllocPD(), nil
}

// CreateCQ creates a completion queue (host-assisted structures, polled
// directly from the co-processor).
func (v *MicVerbs) CreateCQ(p *sim.Proc, depth int) (*ib.CQ, error) {
	if _, err := v.call(p, "create-cq", v.create); err != nil {
		return nil, err
	}
	return v.ctx.CreateCQ(depth), nil
}

// CreateQP creates an RC queue pair (host-assisted structures, doorbell
// rung directly from the co-processor).
func (v *MicVerbs) CreateQP(p *sim.Proc, pd *ib.PD, sendCQ, recvCQ *ib.CQ) (*ib.QP, error) {
	if _, err := v.call(p, "create-qp", v.create); err != nil {
		return nil, err
	}
	return v.ctx.CreateQP(pd, sendCQ, recvCQ), nil
}

// RegMR registers co-processor memory: the CMD client translates the
// buffer address and ships the request to the host, which maps and pins
// the pages. This is the expensive path the paper's MR cache exists for.
func (v *MicVerbs) RegMR(p *sim.Proc, pd *ib.PD, dom *machine.Domain, addr uint64, n int) (*ib.MR, error) {
	d := v.daemon
	var handle uint64
	res, err := v.call(p, "reg-mr", func(p *sim.Proc) any {
		// The modified host IB core maps and pins co-processor pages:
		// host registration cost plus the mapping extra.
		mr, err := d.hostCtx.RegMR(p, pd, dom, addr, n)
		if err != nil {
			return err
		}
		p.Sleep(d.Plat.DelegationExtra)
		handle = d.publish(mr)
		return mr
	})
	if err != nil {
		return nil, err
	}
	mr := res.(*ib.MR)
	v.mrHandles[mr] = handle
	return mr, nil
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
	d := v.daemon
	if _, err := v.call(p, "dereg-mr", func(p *sim.Proc) any {
		mr, ok := d.objects[handle].(*ib.MR)
		if !ok {
			return fmt.Errorf("dcfa: unknown MR handle %d", handle)
		}
		err := d.hostCtx.DeregMR(p, mr)
		delete(d.objects, handle)
		return err
	}); err != nil {
		return err
	}
	delete(v.mrHandles, mr)
	return nil
}

// RegOffloadMR allocates a host bounce buffer of the given size,
// registers it on the host, and returns the region usable for later
// sends (the paper's reg_offload_mr).
func (v *MicVerbs) RegOffloadMR(p *sim.Proc, size int) (*OffloadMR, error) {
	d := v.daemon
	res, err := v.call(p, "reg-offload-mr", func(p *sim.Proc) any {
		// Registered whole but written only as far as the sends it
		// stages reach: reserved pages are backed on first touch.
		buf := d.Node.Host.Reserve(size)
		mr, err := d.hostCtx.RegMR(p, d.hostPD, d.Node.Host, buf.Addr, size)
		if err != nil {
			d.Node.Host.Free(buf)
			return err
		}
		omr := &OffloadMR{Size: size, HostBuf: buf, HostMR: mr}
		omr.Handle = d.publish(omr)
		return omr
	})
	if err != nil {
		return nil, err
	}
	return res.(*OffloadMR), nil
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
	d, handle := v.daemon, omr.Handle
	_, err := v.call(p, "dereg-offload-mr", func(p *sim.Proc) any {
		omr, ok := d.objects[handle].(*OffloadMR)
		if !ok {
			return fmt.Errorf("dcfa: unknown offload MR handle %d", handle)
		}
		err := d.hostCtx.DeregMR(p, omr.HostMR)
		d.Node.Host.Free(omr.HostBuf)
		omr.released = true
		delete(d.objects, handle)
		return err
	})
	return err
}

// Pack delegates a datatype gather of n packed bytes to the host CPU
// (§VI's CMD offload of user-defined datatypes): one command round trip
// plus the host's pack rate over the mapped co-processor pages. pack
// does the gather in the daemon's process; a command that fails ran
// no host work, so the caller may then pack locally instead.
func (v *MicVerbs) Pack(p *sim.Proc, n int, pack func()) error {
	d := v.daemon
	_, err := v.call(p, "pack", func(p *sim.Proc) any {
		pack()
		p.Sleep(sim.Duration(float64(n) / d.Plat.HostPackRate * float64(sim.Second)))
		return nil
	})
	return err
}
