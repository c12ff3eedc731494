package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// A minimal reader for the gzip'ed protobuf that runtime/pprof writes
// (profile.proto), enough to attribute CPU samples to their leaf
// function. It exists so the ledger needs no module beyond the standard
// library and no `go tool pprof` subprocess.

// protoField is one decoded field: varint fields carry v, length-
// delimited fields carry b.
type protoField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

var errProto = errors.New("benchmark: malformed profile protobuf")

func readVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// protoFields splits one message into its top-level fields.
func protoFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, n := readVarint(b)
		if n == 0 {
			return nil, errProto
		}
		b = b[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := readVarint(b)
			if n == 0 {
				return nil, errProto
			}
			f.v, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errProto
			}
			b = b[8:]
		case 2:
			l, n := readVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return nil, errProto
			}
			f.b, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errProto
			}
			b = b[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// repeatedVarints reads a repeated integer field in either encoding:
// packed (one length-delimited run) or one varint per occurrence.
func repeatedVarints(dst []uint64, f protoField) []uint64 {
	if f.wire == 0 {
		return append(dst, f.v)
	}
	b := f.b
	for len(b) > 0 {
		v, n := readVarint(b)
		if n == 0 {
			break
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst
}

// leafSamples decodes a CPU profile into sample counts keyed by the
// leaf frame's function name (the innermost inlined function of the
// first location of each sample).
func leafSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	top, err := protoFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	locFunc := map[uint64]uint64{}  // location id -> leaf function id
	type sample struct {
		loc uint64
		n   int64
	}
	var samples []sample
	for _, f := range top {
		switch f.num {
		case 6:
			strs = append(strs, string(f.b))
		case 5:
			sub, err := protoFields(f.b)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, s := range sub {
				switch s.num {
				case 1:
					id = s.v
				case 2:
					name = s.v
				}
			}
			funcName[id] = name
		case 4:
			sub, err := protoFields(f.b)
			if err != nil {
				return nil, err
			}
			var id, fn uint64
			haveLine := false
			for _, s := range sub {
				switch s.num {
				case 1:
					id = s.v
				case 4:
					if haveLine {
						continue // later lines are the callers of inlined code
					}
					line, err := protoFields(s.b)
					if err != nil {
						return nil, err
					}
					for _, l := range line {
						if l.num == 1 {
							fn = l.v
						}
					}
					haveLine = true
				}
			}
			locFunc[id] = fn
		case 2:
			sub, err := protoFields(f.b)
			if err != nil {
				return nil, err
			}
			var locs, vals []uint64
			for _, s := range sub {
				switch s.num {
				case 1:
					locs = repeatedVarints(locs, s)
				case 2:
					vals = repeatedVarints(vals, s)
				}
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{loc: locs[0], n: int64(vals[0])})
			}
		}
	}
	out := map[string]int64{}
	for _, s := range samples {
		idx := funcName[locFunc[s.loc]]
		name := "?"
		if idx < uint64(len(strs)) {
			name = strs[idx]
		}
		out[name] += s.n
	}
	return out, nil
}

// cpuBucketNames are the cpu.<name>_pct metrics, in report order.
var cpuBucketNames = []string{
	"sim", "ib", "core", "topo", "pcie", "dcfa_scif", "instr", "app",
	"rt_handoff", "rt_gc_alloc", "rt_memmove", "rt_other",
}

// pkgBuckets maps an import-path prefix of the leaf function to its
// bucket. The app bucket takes the application packages, the machine
// model's memory allocator and the workload bodies in this package.
var pkgBuckets = []struct{ prefix, bucket string }{
	{"repro/internal/sim.", "sim"},
	{"repro/internal/ib.", "ib"},
	{"repro/internal/core.", "core"},
	{"repro/internal/topo.", "topo"},
	{"repro/internal/pcie.", "pcie"},
	{"repro/internal/dcfa.", "dcfa_scif"},
	{"repro/internal/scif.", "dcfa_scif"},
	{"repro/internal/metrics.", "instr"},
	{"repro/internal/causal.", "instr"},
	{"repro/internal/trace.", "instr"},
	{"repro/internal/", "app"},
	{"main.", "app"},
}

// Substrings that place a runtime leaf function on the memory-management
// path (allocation, GC, stack growth) or on the goroutine
// park/ready/schedule path every sim.Engine dispatch takes. The lists
// were read off the profiles of all seven workloads under go1.24, where
// they leave under 3% of samples in rt_other; memory management is
// tested first, so "lock" cannot claim sweepLocked.
var (
	rtGCAlloc = []string{
		"malloc", "gc", "GC", "sweep", "scan", "mspan", "mcache", "mcentral", "mheap", "heapBits",
		"typePointers", "markBits", "wbBuf", "greyobject", "findObject", "spanOf", "memclr", "nextFree",
		"growslice", "newobject", "makeslice", "pageAlloc", "scavenge", "lfstack", "spanSet", "acquirem",
		"releasem", "arenaIndex", "pageIndexOf", "roundupsize", "spanClass", "sysMemStat", "mSpanStateBox",
		"stackalloc", "stackfree", "newstack", "copystack", "morestack",
	}
	rtHandoff = []string{
		"chan", "park", "ready", "futex", "lock", "Lock", "udog", "casgstatus", "schedule", "findRunnable", "runq",
		"wakep", "startm", "stopm", "pidle", "procyield", "osyield", "usleep", "nanotime", "note", "mcall",
		"gogo", "execute", "guintptr", "timers", "stealWork", "gosched", "dropg", "acquirep", "releasep",
		"injectglist", "netpoll", "epoll", "spinning", "handoffp", "runtime.send", "runtime.recv",
		"sendDirect", "recvDirect",
	}
)

func hasAny(name string, subs []string) bool {
	for _, s := range subs {
		if strings.Contains(name, s) {
			return true
		}
	}
	return false
}

// bucketOf names the cpu.* bucket of one leaf function.
func bucketOf(fn string) string {
	for _, pb := range pkgBuckets {
		if strings.HasPrefix(fn, pb.prefix) {
			return pb.bucket
		}
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/internal/") || strings.HasPrefix(fn, "internal/runtime/") {
		switch {
		case strings.HasPrefix(fn, "runtime.memmove"):
			return "rt_memmove"
		case hasAny(fn, rtGCAlloc):
			return "rt_gc_alloc"
		case hasAny(fn, rtHandoff):
			return "rt_handoff"
		}
	}
	return "rt_other"
}

// cpuBuckets turns a CPU profile into leaf-frame self-time shares per
// bucket (in cpuBucketNames order, summing to 100) and the sample
// count. A profile with no samples — a timed region shorter than the
// 10 ms sampling period — yields all zeros.
func cpuBuckets(gz []byte) ([]float64, int64) {
	pct := make([]float64, len(cpuBucketNames))
	if len(gz) == 0 {
		return pct, 0
	}
	leaves, err := leafSamples(gz)
	if err != nil {
		return pct, 0
	}
	counts := map[string]int64{}
	for fn, n := range leaves {
		counts[bucketOf(fn)] += n
	}
	var total int64
	for _, name := range cpuBucketNames {
		total += counts[name]
	}
	if total == 0 {
		return pct, 0
	}
	for i, name := range cpuBucketNames {
		pct[i] = 100 * float64(counts[name]) / float64(total)
	}
	return pct, total
}
