package analysis

// MRPin enforces the MR-cache pin protocol: every MR handed out by
// MRCache.Get must reach a matching MRCache.Release on every path.
// Get pins the cache entry against eviction; an unbalanced pin
// permanently shrinks the evictable portion of the cache, and an
// unbalanced Release panics at runtime.
// The verb tables (MRCache.Get acquire, MRCache.Release release) are
// populated from builtinContracts at init — see contracts.go.
var mrpinSpec = &lifecycleSpec{
	rule:       "mrpin",
	what:       "pinned MR",
	resultType: "MR",
	leakMsg:    "pinned MR from MRCache.%s is not released on every path: unbalanced pins permanently shrink the cache",
	discardMsg: "result of MRCache.%s discarded: the pinned MR can never be released",
	doubleMsg:  "pinned MR may already be released: an unbalanced MRCache.Release panics",
}

var MRPin = &Analyzer{
	Name:      "mrpin",
	Scope:     ScopeIntra,
	Doc:       "every MRCache.Get must be matched by MRCache.Release on all paths",
	AppliesTo: notTestPackage,
	Run:       func(p *Pass) { runLifecycle(p, mrpinSpec) },
}
