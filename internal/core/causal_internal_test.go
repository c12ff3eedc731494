package core

// The causal package mirrors core's wire and work-request constants so
// the graph layer can classify edges without importing core (core
// imports causal). These assertions pin the numeric agreement.

import (
	"testing"

	"repro/internal/causal"
)

func TestCausalPacketKindsAgree(t *testing.T) {
	pairs := []struct {
		name   string
		core   byte
		causal uint8
	}{
		{"eager", pktEager, causal.PktEager},
		{"rts", pktRTS, causal.PktRTS},
		{"rtr", pktRTR, causal.PktRTR},
		{"done", pktDone, causal.PktDone},
		{"credit", pktCredit, causal.PktCredit},
		{"nack", pktNack, causal.PktNack},
		{"done-w", pktDoneW, causal.PktDoneW},
		{"nack-w", pktNackW, causal.PktNackW},
	}
	for _, p := range pairs {
		if uint8(p.core) != p.causal {
			t.Errorf("packet kind %s: core %d != causal %d", p.name, p.core, p.causal)
		}
	}
}

func TestCausalWRKindsAgree(t *testing.T) {
	// WR kinds are emitted shifted by one so zero stays "unset".
	pairs := []struct {
		name   string
		core   wrKind
		causal uint8
	}{
		{"eager", wrEager, causal.WREager},
		{"ctrl", wrCtrl, causal.WRCtrl},
		{"rndv-write", wrRndvWrite, causal.WRRndvWrite},
		{"rndv-read", wrRndvRead, causal.WRRndvRead},
	}
	for _, p := range pairs {
		if uint8(p.core)+1 != p.causal {
			t.Errorf("WR kind %s: core %d+1 != causal %d", p.name, p.core, p.causal)
		}
	}
}
