// Package machine models the compute-node hardware of the paper's
// cluster: each node has a host (Xeon) memory domain and a co-processor
// (Xeon Phi) memory domain joined by PCI Express. Buffers are real Go
// byte slices tagged with fake device addresses so that the simulated
// InfiniBand layer can resolve (addr, key) pairs exactly the way a real
// HCA resolves DMA addresses.
package machine

import (
	"fmt"
	"sort"
)

// DomainKind distinguishes the two physical memories on a node.
type DomainKind int

const (
	// HostMem is Xeon host DRAM.
	HostMem DomainKind = iota
	// MicMem is Xeon Phi on-card GDDR5.
	MicMem
)

func (k DomainKind) String() string {
	switch k {
	case HostMem:
		return "host"
	case MicMem:
		return "mic"
	default:
		return fmt.Sprintf("DomainKind(%d)", int(k))
	}
}

// pageSize is the allocation granularity; the paper's offload tuning
// advice ("align the buffer on a 4Kbytes page boundary") makes 4 KiB the
// natural unit.
const pageSize = 4096

// Domain is one physical memory: an address space plus its live
// allocations.
type Domain struct {
	Name string
	Kind DomainKind
	Node *Node

	nextAddr uint64
	// allocs is kept sorted by Addr for range resolution.
	allocs []*Buffer
	// BytesLive tracks currently allocated bytes.
	BytesLive int64
	// reserved holds Reserve's mappings; only the Domain points at it,
	// so it becomes unreachable with the Domain (see reserve_unix.go).
	reserved *reservations
}

// reservations is the set of kernel mappings Reserve made for one
// Domain. They are unmapped together once the Domain is unreachable.
type reservations struct{ maps [][]byte }

// Buffer is a device-addressable allocation inside a Domain. Data may
// live outside the Go heap (Reserve), where it stays mapped only while
// its Domain is reachable: whatever holds Data must also hold the Buffer
// or the Domain.
type Buffer struct {
	Dom   *Domain
	Addr  uint64
	Data  []byte
	freed bool
}

// Node is one cluster node: host domain + co-processor domain.
// Interconnect models (PCIe DMA engine, HCA) attach themselves via the
// pcie and ib packages.
type Node struct {
	ID   int
	Host *Domain
	Mic  *Domain
}

// Address-space bases. The two domains of a node are disjoint, page-
// aligned ranges, so an address from one never falls inside an
// allocation or a registered region of the other: posting a host
// address with a mic key (or the reverse) fails Resolve and the HCA's
// bounds check instead of silently touching the wrong memory.
const (
	hostBase = 0x10000
	micBase  = 1 << 40
)

// NewNode creates node id with empty host and mic domains.
func NewNode(id int) *Node {
	n := &Node{ID: id}
	n.Host = &Domain{Name: fmt.Sprintf("node%d/host", id), Kind: HostMem, Node: n, nextAddr: hostBase}
	n.Mic = &Domain{Name: fmt.Sprintf("node%d/mic", id), Kind: MicMem, Node: n, nextAddr: micBase}
	return n
}

// Domain returns the node's domain of kind k.
func (n *Node) Domain(k DomainKind) *Domain {
	if k == HostMem {
		return n.Host
	}
	return n.Mic
}

// Alloc allocates n bytes (rounded up to a 4 KiB page multiple for
// addressing purposes; Data has exactly n bytes) and returns the buffer.
// Data starts all zero, whatever the domain held before: callers such as
// the stencil's slabs write only their nonzero cells.
func (d *Domain) Alloc(n int) *Buffer {
	if n < 0 {
		panic("machine: negative allocation")
	}
	return d.place(make([]byte, n))
}

// place gives data the domain's next page-aligned address and makes it
// resolvable. Alloc and Reserve differ only in where data came from.
func (d *Domain) place(data []byte) *Buffer {
	span := uint64((len(data) + pageSize - 1) / pageSize * pageSize)
	if span == 0 {
		span = pageSize
	}
	b := &Buffer{Dom: d, Addr: d.nextAddr, Data: data}
	d.nextAddr += span
	d.allocs = append(d.allocs, b)
	d.BytesLive += int64(len(data))
	return b
}

// Free releases the buffer. Resolving addresses inside it afterwards
// fails, as touching freed memory should. A reserved buffer's mapping
// outlives Free: a slice still pointing into it reads stale bytes rather
// than faulting the process.
func (d *Domain) Free(b *Buffer) {
	if b.Dom != d {
		panic("machine: freeing buffer in wrong domain")
	}
	if b.freed {
		panic("machine: double free")
	}
	b.freed = true
	d.BytesLive -= int64(len(b.Data))
	i := sort.Search(len(d.allocs), func(i int) bool { return d.allocs[i].Addr >= b.Addr })
	if i < len(d.allocs) && d.allocs[i] == b {
		d.allocs = append(d.allocs[:i], d.allocs[i+1:]...)
	}
}

// Resolve maps [addr, addr+n) to the backing bytes. It fails if the
// range is not fully inside one live allocation — the simulated
// equivalent of a DMA protection fault.
func (d *Domain) Resolve(addr uint64, n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("machine: %s: negative length %d", d.Name, n)
	}
	i := sort.Search(len(d.allocs), func(i int) bool { return d.allocs[i].Addr > addr })
	if i == 0 {
		return nil, fmt.Errorf("machine: %s: address %#x not mapped", d.Name, addr)
	}
	b := d.allocs[i-1]
	off := addr - b.Addr
	if off > uint64(len(b.Data)) || off+uint64(n) > uint64(len(b.Data)) {
		return nil, fmt.Errorf("machine: %s: range [%#x,+%d) overruns allocation at %#x (len %d)",
			d.Name, addr, n, b.Addr, len(b.Data))
	}
	return b.Data[off : off+uint64(n)], nil
}

// Contains reports whether [addr, addr+n) lies within the buffer.
func (b *Buffer) Contains(addr uint64, n int) bool {
	return addr >= b.Addr && addr+uint64(n) <= b.Addr+uint64(len(b.Data))
}

// Slice returns the buffer's bytes at [off, off+n).
func (b *Buffer) Slice(off, n int) []byte { return b.Data[off : off+n] }
