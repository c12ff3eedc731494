package analysis

// Offload enforces the paper's offloading send-buffer protocol order:
// RegOffloadMR → SyncOffloadMR → RDMA post → DeregOffloadMR. Posting
// from an offload MR before its host mirror is synced transfers stale
// bytes; using one after deregistration touches freed card memory; and
// a leaked offload MR holds both host and card buffers forever.
// The verb tables (RegOffloadMR acquire, SyncOffloadMR advance,
// DeregOffloadMR release) are populated from builtinContracts at init
// — see contracts.go.
var offloadSpec = &lifecycleSpec{
	rule:          "offload",
	what:          "offload MR",
	resultType:    "OffloadMR",
	trackUnsynced: true,
	postPrefix:    "Post",
	orderFields:   map[string]bool{"HostBuf": true, "HostMR": true},
	checkUse:      true,
	leakMsg:       "offload MR from %s is not deregistered on every path: call DeregOffloadMR before returning",
	discardMsg:    "result of %s discarded: the offload MR can never be deregistered",
	useMsg:        "use of offload MR after DeregOffloadMR",
	doubleMsg:     "offload MR may already be deregistered: double DeregOffloadMR",
	orderMsg:      "offload MR posted or read before SyncOffloadMR: the host mirror may hold stale data",
}

var Offload = &Analyzer{
	Name:      "offload",
	Scope:     ScopeIntra,
	Doc:       "offload MRs follow RegOffloadMR → SyncOffloadMR → post → DeregOffloadMR; no post before sync, no use after dereg, no leak",
	AppliesTo: notTestPackage,
	Run:       func(p *Pass) { runLifecycle(p, offloadSpec) },
}
