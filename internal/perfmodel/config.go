package perfmodel

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Load parses a JSON calibration over the defaults: omitted fields keep
// their Default() values, so a file only needs the overrides. A field the
// Platform does not have is an error: a file that sets a rate the model
// does not carry is refused rather than silently ignored.
func Load(data []byte) (*Platform, error) {
	p := Default()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(p); err != nil {
		return nil, fmt.Errorf("perfmodel: parse calibration: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("perfmodel: parse calibration: data after the object")
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
		{"HCAReadPhi", p.HCAReadPhi},
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
	if p.HostCores <= 0 {
		return fmt.Errorf("perfmodel: HostCores must be positive, got %d", p.HostCores)
	}
	return nil
}
