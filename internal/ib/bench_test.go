package ib

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/sim"
)

// BenchmarkWire drives the data path one work request at a time, post to
// completion, on a connected QP pair in co-processor memory. B/op is the
// host memory a transfer costs beyond the bytes it moves: a payload-sized
// figure here means a per-message payload buffer is back. The faulted
// row's every write ends in retry exhaustion, so each iteration also
// resets and reconnects the QP, as recovery does.
func BenchmarkWire(b *testing.B) {
	for _, row := range []struct {
		name   string
		op     Opcode
		n      int
		inline bool
		plan   *faults.Plan
		want   Status
	}{
		{"write-inline-64B", OpRDMAWrite, 64, true, nil, StatusSuccess},
		{"write-256KiB", OpRDMAWrite, 256 << 10, false, nil, StatusSuccess},
		{"read-256KiB", OpRDMARead, 256 << 10, false, nil, StatusSuccess},
		{"write-256KiB-faulted", OpRDMAWrite, 256 << 10, false, &faults.Plan{IBError: 1, IBDelivered: 1}, StatusRetryExcErr},
	} {
		b.Run(row.name, func(b *testing.B) {
			r := newRig()
			r.h0.fab.Faults = faults.New(r.eng, row.plan)
			x, y := newEndpoint(r.h0, machine.MicMem), newEndpoint(r.h1, machine.MicMem)
			if err := ConnectPair(x.qp, y.qp); err != nil {
				b.Fatal(err)
			}
			local, remote := r.n0.Mic.Alloc(row.n), r.n1.Mic.Alloc(row.n)
			lmr, rmr := mustReg(b, x, local), mustReg(b, y, remote)
			wr := &SendWR{Opcode: row.op, Signaled: true, Inline: row.inline,
				SGL:    []SGE{{Addr: local.Addr, Len: row.n, LKey: lmr.LKey}},
				Remote: RemoteAddr{Addr: rmr.Addr, RKey: rmr.RKey}}
			b.SetBytes(int64(row.n))
			b.ReportAllocs()
			r.eng.Spawn("driver", func(p *sim.Proc) {
				var cqe [1]CQE
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := x.qp.PostSend(p, wr); err != nil {
						b.Error(err)
						return
					}
					for x.cq.PollInto(p, cqe[:]) == 0 {
						x.cq.Notify.Wait(p)
					}
					if cqe[0].Status != row.want {
						b.Errorf("completion %+v", cqe[0])
						return
					}
					if row.want != StatusSuccess {
						x.qp.Reset()
						if err := ConnectPair(x.qp, y.qp); err != nil {
							b.Error(err)
							return
						}
					}
				}
				b.StopTimer()
			})
			if err := r.eng.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
