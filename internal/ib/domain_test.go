package ib

import (
	"bytes"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// domainRig is a connected QP pair with one page of host and one page
// of mic memory on each node, indexed by machine.DomainKind. The four
// buffers are each the first allocation of their domain, so they would
// share one address if the two address spaces overlapped — the mix the
// rows below must see faulted.
type domainRig struct {
	*rig
	a, b *endpoint
	buf  [2][2]*machine.Buffer // [node][kind]
	mr   [2][2]*MR
}

const domainPage = 4096

func newDomainRig(t *testing.T) *domainRig {
	t.Helper()
	d := &domainRig{rig: newRig()}
	d.a = newEndpoint(d.h0, machine.HostMem)
	d.b = newEndpoint(d.h1, machine.HostMem)
	connect(t, d.a, d.b)
	for i, n := range []*machine.Node{d.n0, d.n1} {
		for _, k := range []machine.DomainKind{machine.HostMem, machine.MicMem} {
			d.buf[i][k] = n.Domain(k).Alloc(domainPage)
		}
	}
	for i := range d.buf[0] {
		d.buf[0][i].Data[0] = 0xA0 + byte(i)
	}
	return d
}

// register registers all four buffers, each against its own domain.
func (d *domainRig) register(t *testing.T, p *sim.Proc) bool {
	for i, e := range []*endpoint{d.a, d.b} {
		for k, b := range d.buf[i] {
			mr, err := e.ctx.RegMRBuffer(p, e.pd, b)
			if err != nil {
				t.Errorf("same-domain registration failed: %v", err)
				return false
			}
			d.mr[i][k] = mr
		}
	}
	return true
}

// TestRegMRChecksDomain: an address is only registrable against the
// domain that allocated it.
func TestRegMRChecksDomain(t *testing.T) {
	host, mic := machine.HostMem, machine.MicMem
	for _, row := range []struct {
		name      string
		addr, dom machine.DomainKind
		wantErr   bool
	}{
		{"host address in host domain", host, host, false},
		{"mic address in mic domain", mic, mic, false},
		{"mic address in host domain", mic, host, true},
		{"host address in mic domain", host, mic, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			d := newDomainRig(t)
			d.eng.Spawn("reg", func(p *sim.Proc) {
				_, err := d.a.ctx.RegMR(p, d.a.pd, d.n0.Domain(row.dom), d.buf[0][row.addr].Addr, domainPage)
				if (err != nil) != row.wantErr {
					t.Errorf("RegMR error = %v, want error: %v", err, row.wantErr)
				}
			})
			if err := d.eng.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWorkRequestChecksDomain is the lkey/rkey rows of the verbs
// conformance table (Kerr's protection checks): a descriptor whose
// address and key name different memory domains faults. A local SGE is
// validated when the work request is posted, as PostSend and PostRecv
// document, so a local mix is a post error; a remote mix reaches the
// responder and completes REM_ACCESS_ERR. Same-domain descriptors move
// bytes into the memory their address names.
func TestWorkRequestChecksDomain(t *testing.T) {
	host, mic := machine.HostMem, machine.MicMem
	type outcome int
	const (
		moved outcome = iota
		postErr
		remAccessErr
	)
	for _, row := range []struct {
		name        string
		op          Opcode
		lAddr, lKey machine.DomainKind
		rAddr, rKey machine.DomainKind // RDMA only
		want        outcome
	}{
		{name: "send host sge", op: OpSend, lAddr: host, lKey: host, want: moved},
		{name: "send mic sge", op: OpSend, lAddr: mic, lKey: mic, want: moved},
		{name: "send host address with mic lkey", op: OpSend, lAddr: host, lKey: mic, want: postErr},
		{name: "send mic address with host lkey", op: OpSend, lAddr: mic, lKey: host, want: postErr},
		{name: "recv host address with mic lkey", op: OpRecv, lAddr: host, lKey: mic, want: postErr},
		{name: "write mic to remote mic", op: OpRDMAWrite, lAddr: mic, lKey: mic, rAddr: mic, rKey: mic, want: moved},
		{name: "write to remote host address with mic rkey", op: OpRDMAWrite, lAddr: host, lKey: host, rAddr: host, rKey: mic, want: remAccessErr},
		{name: "write to remote mic address with host rkey", op: OpRDMAWrite, lAddr: host, lKey: host, rAddr: mic, rKey: host, want: remAccessErr},
		{name: "write mic address with host lkey", op: OpRDMAWrite, lAddr: mic, lKey: host, rAddr: host, rKey: host, want: postErr},
		{name: "read remote host into mic", op: OpRDMARead, lAddr: mic, lKey: mic, rAddr: host, rKey: host, want: moved},
		{name: "read remote mic address with host rkey", op: OpRDMARead, lAddr: host, lKey: host, rAddr: mic, rKey: host, want: remAccessErr},
		{name: "read into host address with mic lkey", op: OpRDMARead, lAddr: host, lKey: mic, rAddr: host, rKey: host, want: postErr},
	} {
		t.Run(row.name, func(t *testing.T) {
			d := newDomainRig(t)
			// Where correct bytes start and where they must end up.
			src, dst := d.buf[0][row.lAddr], d.buf[1][row.rAddr]
			if row.op == OpSend {
				dst = d.buf[1][host]
			} else if row.op == OpRDMARead {
				src, dst = d.buf[1][row.rAddr], d.buf[0][row.lAddr]
				src.Data[0] = 0xB0
			}
			d.eng.Spawn("post", func(p *sim.Proc) {
				if !d.register(t, p) {
					return
				}
				sge := SGE{Addr: d.buf[0][row.lAddr].Addr, Len: domainPage, LKey: d.mr[0][row.lKey].LKey}
				if row.op == OpSend {
					landing := SGE{Addr: dst.Addr, Len: domainPage, LKey: d.mr[1][host].LKey}
					if err := d.b.qp.PostRecv(p, &RecvWR{WRID: 2, SGL: []SGE{landing}}); err != nil {
						t.Errorf("same-domain PostRecv: %v", err)
						return
					}
				}
				var err error
				if row.op == OpRecv {
					err = d.a.qp.PostRecv(p, &RecvWR{WRID: 1, SGL: []SGE{sge}})
				} else {
					err = d.a.qp.PostSend(p, &SendWR{WRID: 1, Opcode: row.op, Signaled: true, SGL: []SGE{sge},
						Remote: RemoteAddr{Addr: d.buf[1][row.rAddr].Addr, RKey: d.mr[1][row.rKey].RKey}})
				}
				if row.want == postErr {
					if err == nil {
						t.Error("post accepted an SGE whose address and lkey name different domains")
					}
					return
				}
				if err != nil {
					t.Errorf("post: %v", err)
					return
				}
				wantStatus := StatusSuccess
				if row.want == remAccessErr {
					wantStatus = StatusRemAccessErr
				}
				if cqe := d.a.cq.WaitPoll(p, 1)[0]; cqe.Status != wantStatus {
					t.Errorf("completion status %v, want %v", cqe.Status, wantStatus)
				}
			})
			if err := d.eng.Run(); err != nil {
				t.Fatal(err)
			}
			if row.want == moved && !bytes.Equal(dst.Data, src.Data) {
				t.Error("same-domain work request did not move the bytes its addresses name")
			}
			if row.want == remAccessErr && d.a.qp.State != QPError {
				t.Error("QP not in error state after the remote protection fault")
			}
		})
	}
}
