package perfmodel

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	p := Default()
	p.IBBandwidth = 1.23e9
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *p {
		t.Fatal("round trip changed the platform")
	}
}

func TestLoadOverridesOnlyGivenFields(t *testing.T) {
	got, err := Load([]byte(`{"ProxyBandwidth": 5e8}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.ProxyBandwidth != 5e8 {
		t.Fatalf("override lost: %g", got.ProxyBandwidth)
	}
	def := Default()
	if got.IBBandwidth != def.IBBandwidth || got.HostCores != def.HostCores {
		t.Fatal("defaults clobbered")
	}
}

func TestLoadRejectsBadJSON(t *testing.T) {
	if _, err := Load([]byte(`{nope`)); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

func TestValidateRejectsNonPositiveRates(t *testing.T) {
	if _, err := Load([]byte(`{"IBBandwidth": 0}`)); err == nil || !strings.Contains(err.Error(), "IBBandwidth") {
		t.Fatalf("zero bandwidth accepted: %v", err)
	}
	if _, err := Load([]byte(`{"HostCores": -1}`)); err == nil || !strings.Contains(err.Error(), "HostCores") {
		t.Fatalf("negative core count accepted: %v", err)
	}
	if _, err := Load([]byte(`{"PhiScalingAlpha": -0.5}`)); err == nil {
		t.Fatal("negative alpha accepted")
	}
}

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	// The platform carries no HCA write rate (writes never bind below
	// the wire): a calibration that sets one must not load as if it
	// took effect.
	if _, err := Load([]byte(`{"HCAWritePhi": 26e9}`)); err == nil || !strings.Contains(err.Error(), "HCAWritePhi") {
		t.Fatalf("unknown field accepted: %v", err)
	}
	// Nor does it carry the protocol's own choices: those are the
	// library's defaults (core.ConfigFromPlatform), not measured costs.
	for _, name := range []string{"EagerMax", "EagerSlots", "MRCacheEntries", "OffloadMinSize", "OffloadPackMinSize", "ProxyEagerMax"} {
		if _, err := Load([]byte(`{"` + name + `": 8192}`)); err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("protocol setting %s accepted as calibration: %v", name, err)
		}
	}
	if _, err := Load([]byte(`{} {}`)); err == nil {
		t.Fatal("data after the calibration object accepted")
	}
}
