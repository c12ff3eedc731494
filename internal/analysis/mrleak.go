package analysis

// MRLeak enforces the memory-registration protocol: every MR produced
// by RegMR/RegMRBuffer must reach DeregMR (directly or via defer) or
// transfer ownership out of the function on every path, and must not
// be used after deregistration. Registration crosses the PCIe command
// channel, so a leaked MR pins card-side resources for the life of the
// process.
// The verb tables (RegMR/RegMRBuffer acquire, DeregMR release) are
// populated from builtinContracts at init — see contracts.go.
var mrleakSpec = &lifecycleSpec{
	rule:       "mrleak",
	what:       "memory region",
	resultType: "MR",
	checkUse:   true,
	leakMsg:    "memory region from %s is not deregistered on every path: call DeregMR or transfer ownership before returning",
	discardMsg: "result of %s discarded: the memory region can never be deregistered",
	useMsg:     "use of memory region after DeregMR",
	doubleMsg:  "memory region may already be deregistered: double DeregMR",
}

var MRLeak = &Analyzer{
	Name:      "mrleak",
	Scope:     ScopeIntra,
	Doc:       "every RegMR/RegMRBuffer result must reach DeregMR or escape on all paths; no use after dereg",
	AppliesTo: notTestPackage,
	Run:       func(p *Pass) { runLifecycle(p, mrleakSpec) },
}
