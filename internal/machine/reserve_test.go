package machine

import "testing"

// reserveSizes mixes sub-page, exact-page, multi-page and empty sizes.
var reserveSizes = []int{100, pageSize, 3*pageSize + 1, 0, 64 << 10, 7}

// TestReserveMatchesAlloc interleaves Reserve and Alloc on both domains
// of a node and checks that nothing observable differs from an all-Alloc
// run: addresses, zeroed bytes, Resolve, Contains, Free, the double-free
// panic and BytesLive.
func TestReserveMatchesAlloc(t *testing.T) {
	ref, mixed := NewNode(0), NewNode(0)
	for _, k := range []DomainKind{HostMem, MicMem} {
		rd, md := ref.Domain(k), mixed.Domain(k)
		var refs, bufs []*Buffer
		for i, n := range reserveSizes {
			refs = append(refs, rd.Alloc(n))
			if i%2 == 0 {
				bufs = append(bufs, md.Reserve(n))
			} else {
				bufs = append(bufs, md.Alloc(n))
			}
		}
		for i, b := range bufs {
			r := refs[i]
			if b.Addr != r.Addr || len(b.Data) != len(r.Data) || b.Dom != md {
				t.Fatalf("%s buffer %d: addr %#x len %d, want %#x len %d", md.Name, i, b.Addr, len(b.Data), r.Addr, len(r.Data))
			}
			for j, v := range b.Data {
				if v != 0 {
					t.Fatalf("%s buffer %d: byte %d is %#x, want 0", md.Name, i, j, v)
				}
			}
			for j := range b.Data {
				b.Data[j] = byte(i + j)
			}
			n := len(b.Data)
			got, err := md.Resolve(b.Addr, n)
			if err != nil || len(got) != n || (n > 0 && &got[0] != &b.Data[0]) {
				t.Fatalf("%s buffer %d: Resolve = %d bytes, %v", md.Name, i, len(got), err)
			}
			_, errRef := rd.Resolve(r.Addr, n+1)
			if _, err := md.Resolve(b.Addr, n+1); (err == nil) != (errRef == nil) {
				t.Fatalf("%s buffer %d: overrunning Resolve err %v, Alloc's %v", md.Name, i, err, errRef)
			}
			if b.Contains(b.Addr, n) != r.Contains(r.Addr, n) || b.Contains(b.Addr, n+1) != r.Contains(r.Addr, n+1) {
				t.Fatalf("%s buffer %d: Contains differs from Alloc's", md.Name, i)
			}
		}
		if md.BytesLive != rd.BytesLive {
			t.Fatalf("%s: BytesLive %d, want %d", md.Name, md.BytesLive, rd.BytesLive)
		}
		for i, b := range bufs {
			md.Free(b)
			rd.Free(refs[i])
			if md.BytesLive != rd.BytesLive {
				t.Fatalf("%s after freeing %d: BytesLive %d, want %d", md.Name, i, md.BytesLive, rd.BytesLive)
			}
			if _, err := md.Resolve(b.Addr, 1); err == nil {
				t.Fatalf("%s buffer %d: Resolve after Free succeeded", md.Name, i)
			}
		}
		if !panics(func() { md.Free(bufs[0]) }) {
			t.Fatalf("%s: double free of a reserved buffer did not panic", md.Name)
		}
		if a, b := rd.Alloc(1), md.Reserve(1); a.Addr != b.Addr {
			t.Fatalf("%s: address after frees %#x, want %#x", md.Name, b.Addr, a.Addr)
		}
	}
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}
