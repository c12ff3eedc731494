// Command simlint runs the determinism and simulation-safety static
// analyzers over the repository and exits nonzero on findings.
//
// Usage:
//
//	go run ./cmd/simlint ./...
//	go run ./cmd/simlint -rules nondet,maporder ./internal/bench
//	go run ./cmd/simlint -rules all,-rawgo ./...
//	go run ./cmd/simlint -json ./...
//	go run ./cmd/simlint -stats ./...
//	go run ./cmd/simlint -list
//
// -rules takes a comma-separated list applied left to right: a bare
// name includes that rule, a -prefixed name excludes it, and "all"
// includes everything. A list that starts with an exclusion implicitly
// begins from the full set, so "-rules -rawgo" means "all rules
// except rawgo".
//
// Exit codes: 0 when clean, 1 when findings were reported, 2 on a
// usage or load error.
//
// Findings print as "file:line: [rule] message", or with -json as one
// object holding the finding list and per-rule counts for CI
// annotation. A finding is suppressed by a comment on the offending
// line, or alone on the line above it:
//
//	//simlint:ignore rule reason the construct is safe here
//
// The fsmcheck rule reads protocol state machines declared next to a
// typed-constant enum:
//
//	//simlint:fsm -> Initial
//	//simlint:fsm From -> To [reason]
//
// and checks switch exhaustiveness over the enum, transition edges
// against the declared table, and state reachability.
//
// With -stats, the finding list is replaced by a JSON cost report:
// "packages", "wall_ms" (loading and type checking included),
// "total_findings", and per rule "findings" and "ms" of analysis time.
//
// The analyzers (see repro/internal/analysis):
//
//	nondet    wall-clock time, math/rand globals, env reads in sim-driven packages
//	maporder  order-sensitive work inside range-over-map
//	rawgo     goroutines, sync, and channels outside internal/sim
//	errcheck  dropped error returns from MPI operations
//	fsmcheck  exhaustive switches over protocol enums, declared transition tables, unreachable states
//
// Every rule carries a scope, printed by -list: intraprocedural rules
// judge one function body at a time, and the whole-package rule
// (fsmcheck) reads an enum's declarations and every switch over it.
//
// Resource lifecycles are not linted. A rank that exits holding an
// un-waited request, an MR-cache pin or an offload staging range, or a
// world that ends with registrations nobody owns, fails World.Run with
// a *core.LeakError. Buffer reuse under an in-flight request,
// mismatched blocking or collective order, host/mic memory-domain mixes
// and package-level state shared between engine instances fail at run
// time too, as payload mismatches, *sim.DeadlockError, protection-fault
// completions and a -race report. AUDIT.md lists the test that catches
// each.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/analysis"
)

// Exit codes.
const (
	exitClean    = 0
	exitFindings = 1
	exitError    = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is one finding in -json output.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// jsonReport is the -json document: the findings plus per-rule counts
// so CI can annotate without re-aggregating.
type jsonReport struct {
	Findings []jsonFinding  `json:"findings"`
	Counts   map[string]int `json:"counts"`
	Total    int            `json:"total"`
}

// ruleStat is one rule's row in the -stats report.
type ruleStat struct {
	Findings int     `json:"findings"`
	MS       float64 `json:"ms"`
}

// statsReport is the -stats document: per-rule analysis cost and
// finding counts, plus the end-to-end wall time including loading and
// type checking.
type statsReport struct {
	Packages int                 `json:"packages"`
	WallMS   float64             `json:"wall_ms"`
	Rules    map[string]ruleStat `json:"rules"`
	Total    int                 `json:"total_findings"`
}

// run executes the linter and returns the process exit code — the
// single exit path for every outcome.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rules := fs.String("rules", "", "comma-separated rules to run: names include, -names exclude, \"all\" expands; a leading exclusion starts from the full set (default: all)")
	tests := fs.Bool("tests", true, "also lint _test.go files")
	list := fs.Bool("list", false, "list the analyzers and exit")
	asJSON := fs.Bool("json", false, "emit findings as a JSON report on stdout")
	stats := fs.Bool("stats", false, "emit a per-rule JSON cost report (finding counts and analysis wall time) on stdout instead of the finding list")
	if err := fs.Parse(args); err != nil {
		return exitError
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "simlint:", err)
		return exitError
	}

	analyzers, err := analysis.ByName(*rules)
	if err != nil {
		return fail(err)
	}
	if *list {
		// One rule per line: name, scope, description. The name stays
		// the first field so shell pipelines ($1) keep working.
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-10s %-16s %s\n", a.Name, a.Scope, a.Doc)
		}
		return exitClean
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		return fail(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		return fail(err)
	}
	loader.IncludeTests = *tests
	if *stats {
		loader.Stats = &analysis.RunStats{RuleTime: map[string]time.Duration{}}
	}

	t0 := time.Now()
	findings, err := loader.Check(patterns, analyzers)
	if err != nil {
		return fail(err)
	}
	wall := time.Since(t0)

	if *stats {
		report := statsReport{
			Packages: loader.Stats.Packages,
			WallMS:   float64(wall.Microseconds()) / 1000,
			Rules:    map[string]ruleStat{},
			Total:    len(findings),
		}
		counts := map[string]int{}
		for _, f := range findings {
			counts[f.Rule]++
		}
		// Keyed by the analyzer list, not the timing map, so every rule
		// that ran appears even with zero findings.
		for _, a := range analyzers {
			report.Rules[a.Name] = ruleStat{
				Findings: counts[a.Name],
				MS:       float64(loader.Stats.RuleTime[a.Name].Microseconds()) / 1000,
			}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return fail(err)
		}
	} else if *asJSON {
		report := jsonReport{
			Findings: []jsonFinding{},
			Counts:   map[string]int{},
			Total:    len(findings),
		}
		for _, f := range findings {
			report.Findings = append(report.Findings, jsonFinding{
				File:    f.Pos.Filename,
				Line:    f.Pos.Line,
				Rule:    f.Rule,
				Message: f.Message,
			})
			report.Counts[f.Rule]++
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return fail(err)
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}

	if len(findings) > 0 {
		fmt.Fprintf(stderr, "simlint: %d finding(s)\n", len(findings))
		return exitFindings
	}
	return exitClean
}
