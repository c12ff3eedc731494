// Package topo models switched-fabric topologies for the InfiniBand
// layer. The flat (single-switch, all-pairs) wiring the repository grew
// up with corresponds to a nil topology: every HCA egress link feeds a
// non-blocking crossbar and only the per-port serialization modeled by
// ib.HCA's egress link matters. A non-nil topology adds the interior of
// the fabric — leaf and spine switches with per-link bandwidth, latency
// and deterministic FIFO contention queuing — between the source port's
// egress and the destination port's memory.
//
// Topologies are pure timing models: they never move bytes and never
// schedule events themselves. The ib layer asks "given that the last
// byte clears the source egress at time t, when does it arrive at the
// destination port?", and the topology answers by reserving occupancy
// windows on its interior links (sim.Link.ReserveRateAt), which is what
// makes two flows crossing the same uplink queue behind one another
// deterministically.
package topo

import (
	"fmt"

	"repro/internal/sim"
)

// Topology is the timing contract the ib layer consumes. Ports are
// fabric port indices (ib assigns LID-1: the order HCAs were attached).
type Topology interface {
	// Name identifies the topology in reports and test output.
	Name() string
	// Deliver reports when the last byte of an n-byte transfer that
	// clears the source port's egress at start arrives at the
	// destination port, after queuing on interior links. bps is the
	// end-to-end rate already negotiated by the endpoints (the slower
	// of DMA read and wire); interior links cap it further.
	Deliver(start sim.Time, srcPort, dstPort, n int, bps float64) sim.Time
	// CtrlDelay is the latency-only interior crossing for small control
	// messages (RDMA-read requests) that do not occupy data links.
	CtrlDelay(srcPort, dstPort int) sim.Duration
}

// FatTree is a two-level fat tree: ports attach to leaf switches of
// radix Radix, and every leaf owns one uplink pair (up toward the
// spine, down from it). Same-leaf traffic pays one switch traversal;
// cross-leaf traffic additionally reserves the source leaf's uplink and
// the destination leaf's downlink in sequence, so incast onto one leaf
// serializes on that leaf's downlink — the contention behavior flat
// wiring cannot express.
type FatTree struct {
	name string
	// Radix is the number of ports per leaf switch.
	Radix int
	// UplinkBps caps the rate on each up/down link (bytes/second).
	UplinkBps float64

	up   []*sim.Link // per-leaf: leaf -> spine
	down []*sim.Link // per-leaf: spine -> leaf
}

// The fabric's interior delays: store-and-forward per switch hop, and
// propagation per up/down link.
const (
	switchLatency = 100 * sim.Nanosecond
	uplinkLatency = 200 * sim.Nanosecond
)

// FatTreeConfig parameterizes NewFatTree. Zero fields take defaults
// matching the platform's FDR fabric (§V evaluation hardware).
type FatTreeConfig struct {
	Radix     int     // ports per leaf; default 16
	UplinkBps float64 // up/down link rate; default 5.8e9 (FDR); ByName passes the wire rate
}

// NewFatTree builds a fat tree with enough leaves for ports fabric
// ports. The interior links live on eng so their occupancy windows
// share the simulation's virtual clock.
func NewFatTree(eng *sim.Engine, name string, ports int, cfg FatTreeConfig) *FatTree {
	if cfg.Radix <= 0 {
		cfg.Radix = 16
	}
	if cfg.UplinkBps <= 0 {
		cfg.UplinkBps = 5.8e9
	}
	leaves := (ports + cfg.Radix - 1) / cfg.Radix
	if leaves < 1 {
		leaves = 1
	}
	t := &FatTree{name: name, Radix: cfg.Radix, UplinkBps: cfg.UplinkBps}
	for i := 0; i < leaves; i++ {
		t.up = append(t.up, sim.NewLink(eng,
			fmt.Sprintf("%s/leaf%d-up", name, i), uplinkLatency, cfg.UplinkBps))
		t.down = append(t.down, sim.NewLink(eng,
			fmt.Sprintf("%s/leaf%d-down", name, i), uplinkLatency, cfg.UplinkBps))
	}
	return t
}

// Name implements Topology.
func (t *FatTree) Name() string { return t.name }

// Leaves reports the number of leaf switches.
func (t *FatTree) Leaves() int { return len(t.up) }

func (t *FatTree) leafOf(port int) int {
	l := port / t.Radix
	if l < 0 || l >= len(t.up) {
		panic(fmt.Sprintf("topo: port %d outside fabric %q (%d leaves of radix %d)",
			port, t.name, len(t.up), t.Radix))
	}
	return l
}

// Deliver implements Topology. Cross-leaf transfers reserve the source
// leaf's uplink starting when the packet clears the source egress plus
// one switch traversal, then the destination leaf's downlink starting
// when the last byte clears the spine — store-and-forward per hop, so
// each link's FIFO contention is accounted exactly once.
func (t *FatTree) Deliver(start sim.Time, srcPort, dstPort, n int, bps float64) sim.Time {
	sl, dl := t.leafOf(srcPort), t.leafOf(dstPort)
	if sl == dl {
		return start + switchLatency
	}
	rate := bps
	if t.UplinkBps < rate {
		rate = t.UplinkBps
	}
	at := t.up[sl].ReserveRateAt(start+switchLatency, n, rate)
	at = t.down[dl].ReserveRateAt(at+switchLatency, n, rate)
	return at + switchLatency
}

// CtrlDelay implements Topology: latency-only crossing, no occupancy.
func (t *FatTree) CtrlDelay(srcPort, dstPort int) sim.Duration {
	sl, dl := t.leafOf(srcPort), t.leafOf(dstPort)
	if sl == dl {
		return switchLatency
	}
	return 3*switchLatency + t.up[sl].Latency + t.down[dl].Latency
}

// InteriorBytes reports total bytes carried by interior links, for
// reports and tests that assert cross-leaf traffic actually used them.
func (t *FatTree) InteriorBytes() int64 {
	var b int64
	for _, l := range t.up {
		b += l.Bytes
	}
	for _, l := range t.down {
		b += l.Bytes
	}
	return b
}

// ByName constructs a named topology over ports fabric ports whose
// links run at the fabric's wire rate bps, the registry behind the
// scale harness's -topo flag and cluster construction. "flat" (or "")
// returns nil: the implicit single non-blocking switch the repository
// always modeled. "fattree" is the default two-level tree (radix 16);
// "fattree4" forces radix 4 so even 8-rank property runs cross leaves.
func ByName(eng *sim.Engine, name string, ports int, bps float64) (Topology, error) {
	switch name {
	case "", "flat":
		return nil, nil
	case "fattree":
		return NewFatTree(eng, name, ports, FatTreeConfig{UplinkBps: bps}), nil
	case "fattree4":
		return NewFatTree(eng, name, ports, FatTreeConfig{Radix: 4, UplinkBps: bps}), nil
	default:
		return nil, fmt.Errorf("topo: unknown topology %q (want flat, fattree, fattree4)", name)
	}
}

// Names lists the registered topology names, for flag help and the
// property-test matrix.
func Names() []string { return []string{"flat", "fattree", "fattree4"} }
