package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRunListExitsClean(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != exitClean {
		t.Fatalf("run(-list) = %d, want %d (stderr: %s)", code, exitClean, errb.String())
	}
	// Every line carries the rule's scope as the second column, with
	// the name staying first so $1 pipelines keep working.
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 {
			t.Errorf("-list line too short: %q", line)
			continue
		}
		names = append(names, fields[0])
		switch fields[1] {
		case "intraprocedural", "whole-package":
		default:
			t.Errorf("-list line %q: second field %q is not a scope", line, fields[1])
		}
	}
	// Exactly the registered rules, in report order.
	want := "nondet maporder rawgo errcheck fsmcheck"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("-list rules:\n got %s\nwant %s", got, want)
	}
}

func TestRunUnknownRuleIsUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-rules", "nosuchrule"}, &out, &errb); code != exitError {
		t.Errorf("run(-rules nosuchrule) = %d, want %d", code, exitError)
	}
	if !strings.Contains(errb.String(), "unknown rule") {
		t.Errorf("stderr does not explain the unknown rule: %s", errb.String())
	}
}

func TestRunBadFlagIsUsageError(t *testing.T) {
	// The baseline ratchet is gone: its flags are unknown like any other.
	for _, args := range [][]string{{"-nosuchflag"}, {"-baseline", "lint.baseline"}, {"-update-baseline"}} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != exitError {
			t.Errorf("run(%v) = %d, want %d", args, code, exitError)
		}
	}
}

// TestRunExclusionRules drives the -rules exclusion syntax through
// -list: a leading exclusion starts from the full set.
func TestRunExclusionRules(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-rules", "-rawgo,-maporder", "-list"}, &out, &errb); code != exitClean {
		t.Fatalf("run(-rules -rawgo,-maporder -list) = %d, want %d (stderr: %s)", code, exitClean, errb.String())
	}
	for _, kept := range []string{"nondet", "errcheck", "fsmcheck"} {
		if !strings.Contains(out.String(), kept) {
			t.Errorf("excluding rawgo dropped unrelated rule %q:\n%s", kept, out.String())
		}
	}
	for _, dropped := range []string{"rawgo", "maporder"} {
		if strings.Contains(out.String(), dropped) {
			t.Errorf("excluded rule %q still listed:\n%s", dropped, out.String())
		}
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-rules", "all,-nondet", "-list"}, &out, &errb); code != exitClean {
		t.Fatalf("run(-rules all,-nondet -list) = %d, want %d (stderr: %s)", code, exitClean, errb.String())
	}
	if strings.Contains(out.String(), "nondet") {
		t.Errorf("all,-nondet still lists nondet:\n%s", out.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-rules", "nondet,-nondet", "-list"}, &out, &errb); code != exitError {
		t.Errorf("run with empty rule selection = %d, want %d", code, exitError)
	}
}

func TestRunJSONCleanPackage(t *testing.T) {
	var out, errb bytes.Buffer
	// The test runs from cmd/simlint, so reach the package by relative
	// path from here.
	code := run([]string{"-json", "../../internal/sim"}, &out, &errb)
	if code != exitClean {
		t.Fatalf("run(-json internal/sim) = %d, want %d (stderr: %s)", code, exitClean, errb.String())
	}
	var report jsonReport
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if report.Total != 0 || len(report.Findings) != 0 {
		t.Errorf("clean package reported %d findings: %+v", report.Total, report.Findings)
	}
	if report.Findings == nil {
		t.Error("findings must marshal as [], not null")
	}
}
