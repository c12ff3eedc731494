package sim

// Link models a serialized store-and-forward channel with fixed
// propagation latency and a constant bandwidth. It is the shared timing
// primitive for PCIe lanes, DMA engines and InfiniBand wires: concurrent
// transfers queue behind one another for the occupancy portion, while
// latency overlaps freely.
type Link struct {
	eng *Engine
	// Name identifies the link in traces.
	Name string
	// Latency is the propagation delay added after occupancy.
	Latency Duration
	// Bandwidth is the link's own rate in bytes/second; positive.
	Bandwidth float64

	nextFree Time
	// Bytes and Transfers accumulate usage for reports.
	Bytes     int64
	Transfers int64
}

// NewLink returns a link with constant bandwidth bps bytes/second.
func NewLink(e *Engine, name string, latency Duration, bps float64) *Link {
	if bps <= 0 {
		panic("sim: non-positive link bandwidth")
	}
	return &Link{eng: e, Name: name, Latency: latency, Bandwidth: bps}
}

// occupancy is the time n bytes hold a wire of rate bps.
func occupancy(n int, bps float64) Duration {
	if n <= 0 {
		return 0
	}
	return Duration(float64(n) / bps * float64(Second))
}

// OccupancyFor returns the wire-occupancy time for n bytes at the
// link's own bandwidth, with no queueing.
func (l *Link) OccupancyFor(n int) Duration { return occupancy(n, l.Bandwidth) }

// Reserve books a transfer of n bytes starting no earlier than the
// current time and returns the virtual time at which the last byte
// arrives (queueing + occupancy + latency). It does not block the
// caller; combine with Engine.At to deliver the completion.
func (l *Link) Reserve(n int) Time { return l.ReserveRateAt(l.eng.now, n, l.Bandwidth) }

// ReserveRate books a transfer of n bytes like Reserve but at an
// explicit effective rate (bytes/second) instead of the link's own.
// Interconnect models use this when the rate is constrained by the
// slower of several stages (e.g. an HCA DMA read feeding the wire).
func (l *Link) ReserveRate(n int, bps float64) Time {
	return l.ReserveRateAt(l.eng.now, n, bps)
}

// ReserveRateAt books a transfer like ReserveRate but starting no
// earlier than at, which may lie in the virtual future: switched-fabric
// models reserve a downstream hop for a packet that is still crossing
// the upstream one, so each hop queues behind its own traffic from the
// moment the packet could first reach it.
func (l *Link) ReserveRateAt(at Time, n int, bps float64) Time {
	if bps <= 0 {
		panic("sim: non-positive reserve rate")
	}
	start := l.eng.now
	if at > start {
		start = at
	}
	if l.nextFree > start {
		start = l.nextFree
	}
	occ := occupancy(n, bps)
	l.nextFree = start + occ
	l.Bytes += int64(n)
	l.Transfers++
	return start + occ + l.Latency
}

// Transfer is the common process-context idiom: reserve the link for n
// bytes and sleep until the data has fully arrived.
func (l *Link) Transfer(p *Proc, n int) {
	done := l.Reserve(n)
	p.Sleep(done - p.Now())
}
