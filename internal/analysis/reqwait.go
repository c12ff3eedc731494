package analysis

// ReqWait enforces nonblocking-request completion: every Request
// returned by Isend/Irecv must reach Wait, WaitAll, or Test (or escape
// to a caller that will) on every path. An uncompleted request leaks
// its pinned buffers and, for Irecv, silently drops the message its
// sender believes was delivered.
// The verb tables (Isend/Irecv acquire, Wait/WaitAll release, Test
// test) are populated from builtinContracts at init — see contracts.go.
var reqwaitSpec = &lifecycleSpec{
	rule:       "reqwait",
	what:       "request",
	resultType: "Request",
	leakMsg:    "request from %s is not completed on every path: call Wait, WaitAll, or Test before returning",
	discardMsg: "request from %s discarded: the nonblocking operation can never be completed",
	doubleMsg:  "request may already be completed: waiting twice on the same request",
}

var ReqWait = &Analyzer{
	Name:      "reqwait",
	Scope:     ScopeIntra,
	Doc:       "every Isend/Irecv request must reach Wait/Test/WaitAll on all paths",
	AppliesTo: notTestPackage,
	Run:       func(p *Pass) { runLifecycle(p, reqwaitSpec) },
}
