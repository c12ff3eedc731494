package core

import (
	"testing"
	"testing/quick"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := header{
		kind: pktRTS, src: 7, tag: -1234, seq: 987654321,
		payload: 4096, raddr: 0xDEADBEEF00, rkey: 0x1234, rsize: 1 << 20, credits: 17,
	}
	buf := make([]byte, hdrSize)
	h.encode(buf)
	got := decodeHeader(buf)
	if got != h {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, h)
	}
}

func TestQuickHeaderRoundTrip(t *testing.T) {
	f := func(kind byte, src uint16, tag int32, seq uint64, payload uint16, raddr uint64, rkey uint32, rsize uint32, credits uint32) bool {
		h := header{
			kind: kind, src: src, tag: tag, seq: seq,
			payload: int(payload), raddr: raddr, rkey: rkey, rsize: int(rsize), credits: credits,
		}
		buf := make([]byte, hdrSize)
		h.encode(buf)
		return decodeHeader(buf) == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTailMarkerNonzero(t *testing.T) {
	// The receiver polls the tail for a nonzero value; the marker must
	// never be zero, including for sequence id 0.
	for _, seq := range []uint64{0, 1, 42, 1 << 40} {
		if tailMarker(seq) == 0 {
			t.Fatalf("tail marker for seq %d is zero", seq)
		}
	}
}

func TestSlotBytesLayout(t *testing.T) {
	if slotBytes(8192) != hdrSize+8192+tailSize {
		t.Fatalf("slot size %d", slotBytes(8192))
	}
}

func TestRingDescSlotAddr(t *testing.T) {
	d := ringDesc{addr: 0x1000, rkey: 5, slots: 4, slotSize: 100}
	if d.slotAddr(0) != 0x1000 || d.slotAddr(3) != 0x1000+300 {
		t.Fatalf("slot addresses %#x %#x", d.slotAddr(0), d.slotAddr(3))
	}
}
