// Commonly reproduces the paper's second experiment (Table II /
// Figure 10) through the public API: a communication-only application
// where DCFA-MPI keeps the data on the co-processor while the 'Intel
// MPI on Xeon + offload' mode must copy it across PCIe every iteration.
package main

import (
	"fmt"
	"log"

	"repro/dcfampi"
)

var sizes = []int{64, 4096, 65536, 1 << 20}

const iters = 10

// dcfaIteration measures the per-iteration exchange time under
// DCFA-MPI: only the MPI exchange, data never leaves the card.
func dcfaIterations() ([]dcfampi.Time, error) {
	out := make([]dcfampi.Time, len(sizes))
	job := dcfampi.New(dcfampi.ModeDCFA, 2, nil)
	err := job.Run(func(r *dcfampi.Rank) error {
		p := r.Proc()
		other := 1 - r.ID()
		for si, n := range sizes {
			sb, rb := r.Mem(n), r.Mem(n)
			if err := r.Barrier(p); err != nil {
				return err
			}
			start := r.Now()
			for i := 0; i < iters; i++ {
				if _, err := r.Sendrecv(p, other, si, dcfampi.Whole(sb), other, si, dcfampi.Whole(rb)); err != nil {
					return err
				}
			}
			if r.ID() == 0 {
				out[si] = (r.Now() - start) / iters
			}
		}
		return nil
	})
	return out, err
}

// offloadIterations measures the same exchange under the offload mode:
// copy out X, exchange over host MPI, copy the received X back in.
func offloadIterations() ([]dcfampi.Time, error) {
	out := make([]dcfampi.Time, len(sizes))
	job := dcfampi.New(dcfampi.ModeHostOffload, 2, nil)
	devs := job.Devices()
	err := job.Run(func(r *dcfampi.Rank) error {
		p := r.Proc()
		dev := devs[r.ID()]
		dev.OffloadInit(p)
		other := 1 - r.ID()
		for si, n := range sizes {
			hostSend, hostRecv := r.Mem(n), r.Mem(n)
			micBuf := dev.Node.Mic.Alloc(n)
			if err := r.Barrier(p); err != nil {
				return err
			}
			start := r.Now()
			for i := 0; i < iters; i++ {
				dev.OffloadTransfer(p, hostSend.Data, micBuf.Data)
				if _, err := r.Sendrecv(p, other, si, dcfampi.Whole(hostSend), other, si, dcfampi.Whole(hostRecv)); err != nil {
					return err
				}
				dev.OffloadTransfer(p, micBuf.Data, hostRecv.Data)
			}
			if r.ID() == 0 {
				out[si] = (r.Now() - start) / iters
			}
		}
		return nil
	})
	return out, err
}

func main() {
	dcfa, err := dcfaIterations()
	if err != nil {
		log.Fatal(err)
	}
	off, err := offloadIterations()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("communication-only application (Table II workload):")
	fmt.Printf("%10s %16s %22s %10s\n", "bytes", "DCFA-MPI µs", "Xeon+offload µs", "speedup")
	for i, n := range sizes {
		fmt.Printf("%10d %16.1f %22.1f %9.1fx\n",
			n, dcfa[i].Micros(), off[i].Micros(), float64(off[i])/float64(dcfa[i]))
	}
	fmt.Println("(paper: 12x below 128 B, 2x above 512 KiB)")
}
