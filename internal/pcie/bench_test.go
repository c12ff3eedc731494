package pcie

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkDMA times one blocking 64 KiB copy on each of the bus's two
// paths, start to landing, on a process of its own: the DMA engine the
// offload staging path uses and the COI transfer. B/op is what a copy
// costs beyond the bytes it moves; a copy rides a pooled record, so it
// is 0.
func BenchmarkDMA(b *testing.B) {
	const size = 64 << 10
	for _, row := range []struct {
		name string
		copy func(bus *Bus, p *sim.Proc, dst, src []byte) error
	}{
		{"dma-copy-64KiB", (*Bus).DMACopy},
		{"offload-transfer-64KiB", func(bus *Bus, p *sim.Proc, dst, src []byte) error {
			bus.OffloadTransfer(p, dst, src)
			return nil
		}},
	} {
		b.Run(row.name, func(b *testing.B) {
			eng, bus, n := setup()
			src, dst := n.Mic.Alloc(size), n.Host.Alloc(size)
			b.SetBytes(size)
			b.ReportAllocs()
			eng.Spawn("copier", func(p *sim.Proc) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := row.copy(bus, p, dst.Data, src.Data); err != nil {
						b.Error(err)
						return
					}
				}
				b.StopTimer()
			})
			if err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
