package machine

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestAllocResolveRoundTrip(t *testing.T) {
	n := NewNode(0)
	b := n.Host.Alloc(100)
	copy(b.Data, bytes.Repeat([]byte{0xAB}, 100))
	got, err := n.Host.Resolve(b.Addr, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, b.Data) {
		t.Fatal("resolved bytes differ")
	}
}

func TestAllocStartsZeroAfterFree(t *testing.T) {
	n := NewNode(0)
	for _, d := range []*Domain{n.Host, n.Mic} {
		old := d.Alloc(3 * pageSize)
		for i := range old.Data {
			old.Data[i] = 0xAB
		}
		d.Free(old)
		b := d.Alloc(3 * pageSize)
		for i, v := range b.Data {
			if v != 0 {
				t.Fatalf("%s: byte %d of a new buffer is %#x, want 0", d.Name, i, v)
			}
		}
	}
}

func TestResolveSubRange(t *testing.T) {
	n := NewNode(0)
	b := n.Mic.Alloc(4096)
	for i := range b.Data {
		b.Data[i] = byte(i)
	}
	got, err := n.Mic.Resolve(b.Addr+100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 100 || got[49] != 149 {
		t.Fatalf("sub-range wrong: %d %d", got[0], got[49])
	}
}

func TestResolveUnmappedFails(t *testing.T) {
	n := NewNode(0)
	if _, err := n.Host.Resolve(0x42, 4); err == nil {
		t.Fatal("resolve of unmapped address succeeded")
	}
}

func TestResolveOverrunFails(t *testing.T) {
	n := NewNode(0)
	b := n.Host.Alloc(64)
	if _, err := n.Host.Resolve(b.Addr+32, 64); err == nil {
		t.Fatal("overrunning resolve succeeded")
	}
	if _, err := n.Host.Resolve(b.Addr, -1); err == nil {
		t.Fatal("negative-length resolve succeeded")
	}
}

func TestResolveAfterFreeFails(t *testing.T) {
	n := NewNode(0)
	b := n.Host.Alloc(64)
	addr := b.Addr
	n.Host.Free(b)
	if _, err := n.Host.Resolve(addr, 4); err == nil {
		t.Fatal("resolve after free succeeded")
	}
}

func TestDoubleFreePanics(t *testing.T) {
	n := NewNode(0)
	b := n.Host.Alloc(8)
	n.Host.Free(b)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	n.Host.Free(b)
}

func TestAllocationsPageAligned(t *testing.T) {
	n := NewNode(0)
	for i := 0; i < 10; i++ {
		b := n.Host.Alloc(100 + i*333)
		if b.Addr%4096 != 0 {
			t.Fatalf("allocation %d at %#x not page aligned", i, b.Addr)
		}
	}
}

func TestAllocationsDisjoint(t *testing.T) {
	n := NewNode(0)
	a := n.Host.Alloc(5000)
	b := n.Host.Alloc(5000)
	if a.Addr+uint64(len(a.Data)) > b.Addr && b.Addr+uint64(len(b.Data)) > a.Addr {
		t.Fatalf("allocations overlap: [%#x,+%d) [%#x,+%d)", a.Addr, len(a.Data), b.Addr, len(b.Data))
	}
}

func TestBytesLiveAccounting(t *testing.T) {
	n := NewNode(0)
	a := n.Mic.Alloc(1000)
	b := n.Mic.Alloc(500)
	if n.Mic.BytesLive != 1500 {
		t.Fatalf("live %d, want 1500", n.Mic.BytesLive)
	}
	n.Mic.Free(a)
	if n.Mic.BytesLive != 500 {
		t.Fatalf("live %d, want 500", n.Mic.BytesLive)
	}
	n.Mic.Free(b)
	if n.Mic.BytesLive != 0 {
		t.Fatalf("live %d, want 0", n.Mic.BytesLive)
	}
}

func TestBufferContains(t *testing.T) {
	n := NewNode(0)
	b := n.Host.Alloc(100)
	if !b.Contains(b.Addr, 100) {
		t.Fatal("full range not contained")
	}
	if !b.Contains(b.Addr+50, 50) {
		t.Fatal("tail range not contained")
	}
	if b.Contains(b.Addr+50, 51) {
		t.Fatal("overrun range reported contained")
	}
	if b.Contains(b.Addr-1, 1) {
		t.Fatal("preceding range reported contained")
	}
}

func TestDomainKinds(t *testing.T) {
	n := NewNode(3)
	if n.Host.Kind != HostMem || n.Mic.Kind != MicMem {
		t.Fatal("domain kinds wrong")
	}
	if n.Domain(HostMem) != n.Host || n.Domain(MicMem) != n.Mic {
		t.Fatal("Domain() selector wrong")
	}
	if HostMem.String() != "host" || MicMem.String() != "mic" {
		t.Fatal("kind strings wrong")
	}
	if DomainKind(9).String() == "" {
		t.Fatal("unknown kind string empty")
	}
}

// Property: after a random sequence of allocs, every live buffer
// resolves to its own bytes and no other's.
func TestQuickAllocIntegrity(t *testing.T) {
	f := func(sizes []uint16) bool {
		n := NewNode(0)
		var bufs []*Buffer
		for i, s := range sizes {
			if len(bufs) > 30 {
				break
			}
			b := n.Host.Alloc(int(s) + 1)
			b.Data[0] = byte(i)
			bufs = append(bufs, b)
		}
		for i, b := range bufs {
			got, err := n.Host.Resolve(b.Addr, 1)
			if err != nil || got[0] != byte(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
