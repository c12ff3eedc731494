// Package scale is the property/scale test harness for the topology
// model and the collectives layer. It holds no library code — the
// tests are the package:
//
//   - TestScaleAllreduce runs the scale workload bench.Env.ScaleAllreduce,
//     which benchmark/ times as allreduce_ring_256 (default 64 ranks;
//     CI's smoke step passes -ranks=1000), twice and requires
//     bit-identical fingerprints, event counts and virtual end times,
//     with the reduced vector verified against a host-computed oracle.
//     The knobs are plain go-test flags:
//
//     go test ./internal/scale/ -ranks=1000 -seed=7 -topo=fattree -algo=ring
//
//   - TestCollectiveOracle is the property matrix: every collective
//     algorithm × every topology × rank counts {1,2,3,5,8} (64 joins
//     without -short) × three seed/size variants straddling the 1 KiB
//     eager threshold, each compared byte-for-byte against both the
//     naive-algorithm simulation and a host-computed expectation.
package scale
