package perfmodel

import (
	"encoding/json"
	"fmt"
)

// MarshalIndent serializes the platform as JSON for saving a custom
// calibration.
func (p *Platform) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// Load parses a JSON calibration over the defaults: omitted fields keep
// their Default() values, so a file only needs the overrides.
func Load(data []byte) (*Platform, error) {
	p := Default()
	if err := json.Unmarshal(data, p); err != nil {
		return nil, fmt.Errorf("perfmodel: parse calibration: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Validate rejects calibrations the simulator cannot run. The checks
// run in declaration order so the same bad calibration always reports
// the same field first.
func (p *Platform) Validate() error {
	pos := []struct {
		name string
		v    float64
	}{
		{"IBBandwidth", p.IBBandwidth},
		{"HCAReadHost", p.HCAReadHost},
		{"HCAReadPhi", p.HCAReadPhi},
		{"HCAWriteHost", p.HCAWriteHost},
		{"HCAWritePhi", p.HCAWritePhi},
		{"HostCopyRate", p.HostCopyRate},
		{"PhiCopyRate", p.PhiCopyRate},
		{"DMAEngineBandwidth", p.DMAEngineBandwidth},
		{"ProxyBandwidth", p.ProxyBandwidth},
		{"OffloadBandwidth", p.OffloadBandwidth},
		{"PhiCoreRate", p.PhiCoreRate},
		{"HostCoreRate", p.HostCoreRate},
		{"PhiPackRate", p.PhiPackRate},
		{"HostPackRate", p.HostPackRate},
	}
	for _, c := range pos {
		if c.v <= 0 {
			return fmt.Errorf("perfmodel: %s must be positive, got %g", c.name, c.v)
		}
	}
	if p.PhiScalingAlpha < 0 {
		return fmt.Errorf("perfmodel: PhiScalingAlpha must be non-negative")
	}
	ints := []struct {
		name string
		v    int
	}{
		{"HostCores", p.HostCores},
		{"EagerMax", p.EagerMax},
		{"OffloadMinSize", p.OffloadMinSize},
		{"EagerSlots", p.EagerSlots},
		{"MRCacheEntries", p.MRCacheEntries},
	}
	for _, c := range ints {
		if c.v <= 0 {
			return fmt.Errorf("perfmodel: %s must be positive, got %d", c.name, c.v)
		}
	}
	return nil
}
