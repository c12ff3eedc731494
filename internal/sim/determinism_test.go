package sim

import (
	"math"
	"testing"
)

// fingerprintWorkload runs a representative mixed workload — producer /
// consumer processes over a mailbox, timer callbacks, a Signal fan-in
// and a daemon — and returns the engine's event-order digest.
func fingerprintWorkload(t *testing.T) (uint64, int64, Time) {
	t.Helper()
	e := NewEngine()
	q := newMailbox[int](e)
	done := NewSignal(e)

	// A daemon server that echoes mailbox items until told to stop.
	var served int
	e.Spawn("server", func(p *Proc) {
		p.MarkDaemon()
		for {
			v := q.get(p)
			if v < 0 {
				return
			}
			served += v
			p.Sleep(Duration(v) * Nanosecond)
		}
	})

	// Three producers racing at the same virtual instants; ties are
	// broken by insertion order, so the interleaving is fixed.
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("producer", func(p *Proc) {
			for j := 0; j < 5; j++ {
				q.put(i*10 + j)
				p.Sleep(Microsecond)
			}
			if i == 2 {
				done.Broadcast()
			}
		})
	}

	// Timer callbacks layered over the process activity.
	for d := Duration(1); d <= 5; d++ {
		e.After(d*Microsecond/2, func() { q.put(1) })
	}

	e.Spawn("closer", func(p *Proc) {
		done.Wait(p)
		p.Sleep(10 * Microsecond)
		q.put(-1)
	})

	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e.Fingerprint(), e.EventsRun(), e.Now()
}

// TestDeterminismDoubleRun executes the same workload twice on fresh
// engines and requires bit-identical event-order digests: the check
// that backs the package's "reproducible by construction" claim.
func TestDeterminismDoubleRun(t *testing.T) {
	fp1, n1, t1 := fingerprintWorkload(t)
	fp2, n2, t2 := fingerprintWorkload(t)
	if fp1 != fp2 {
		t.Errorf("fingerprints differ across runs: %#x vs %#x", fp1, fp2)
	}
	if n1 != n2 {
		t.Errorf("events run differ across runs: %d vs %d", n1, n2)
	}
	if t1 != t2 {
		t.Errorf("final virtual times differ across runs: %v vs %v", t1, t2)
	}
	if fp1 == fnv64Offset {
		t.Error("fingerprint never updated: digest still at FNV offset basis")
	}
}

// TestFingerprintDistinguishesWorkloads makes sure the digest is not a
// constant: a different schedule must hash differently.
func TestFingerprintDistinguishesWorkloads(t *testing.T) {
	e1 := NewEngine()
	e1.Spawn("a", func(p *Proc) { p.Sleep(Microsecond) })
	if err := e1.Run(); err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine()
	e2.Spawn("a", func(p *Proc) { p.Sleep(2 * Microsecond); p.Sleep(Microsecond) })
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if e1.Fingerprint() == e2.Fingerprint() {
		t.Errorf("different schedules produced identical fingerprint %#x", e1.Fingerprint())
	}
}

// fpMix must be the byte-at-a-time FNV-1a it replaced, bit for bit: the
// reference loop lives here only. Words are chained through one digest,
// edge cases first, then 10^5 splitmix64 words shifted right by 0..63 so
// that every count of high zero bytes comes up.
func TestFpMixMatchesByteLoop(t *testing.T) {
	byteLoop := func(fp, x uint64) uint64 {
		for i := 0; i < 8; i++ {
			fp ^= x & 0xff
			fp *= fnv64Prime
			x >>= 8
		}
		return fp
	}
	e := NewEngine()
	want := e.fp
	check := func(x uint64) {
		e.fpMix(x)
		if want = byteLoop(want, x); e.fp != want {
			t.Fatalf("fpMix(%#x) = %#x, byte loop %#x", x, e.fp, want)
		}
	}
	for _, x := range []uint64{0, 1, 0xff, 0x100, 1 << 56, 1 << 63, math.MaxUint64, callbackPID, fastPathPID} {
		check(x)
	}
	seed := uint64(25)
	for i := 0; i < 100000; i++ {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		check(z >> (seed % 64))
	}
}
