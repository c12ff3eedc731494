package analysis

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestLoadRespectsBuildConstraints: the loader must evaluate //go:build
// lines against the default (non-race, host GOOS/GOARCH) configuration
// — otherwise a tag-gated constant pair like core's race_on/race_off
// shim type-checks as a redeclaration.
func TestLoadRespectsBuildConstraints(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module tagmod\n\ngo 1.22\n")
	write("on.go", "//go:build race\n\npackage tagmod\n\nconst raceEnabled = true\n")
	write("off.go", "//go:build !race\n\npackage tagmod\n\nconst raceEnabled = false\n")
	write("plain.go", "package tagmod\n\nvar _ = raceEnabled\n")
	write("osgated.go", "//go:build "+runtime.GOOS+"\n\npackage tagmod\n\nvar hostOnly = 1\n")
	write("othros.go", "//go:build plan9x\n\npackage tagmod\n\nconst raceEnabled = 7 // would redeclare if loaded\n")

	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(dir, "tagmod")
	if err != nil {
		t.Fatalf("tag-gated package failed to load: %v", err)
	}
	if got, want := len(pkg.Files), 3; got != want {
		t.Errorf("loaded %d files, want %d (off.go, plain.go, osgated.go)", got, want)
	}
	if pkg.Types.Scope().Lookup("hostOnly") == nil {
		t.Error("host-GOOS-gated file was excluded")
	}
	if obj := pkg.Types.Scope().Lookup("raceEnabled"); obj == nil {
		t.Error("raceEnabled missing: !race half not loaded")
	}
}

// TestLoadTestsSeesExportTest: external tests are type-checked against
// the package as `go test` builds it — with its in-package test files,
// so an export_test.go bridge resolves — and so is every package they
// import that imports it in turn: b.Make's a.T must still be the a.T
// that a_test names.
func TestLoadTestsSeesExportTest(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module bridge\n\ngo 1.22\n")
	write("a/a.go", "package a\n\ntype T struct{ N int }\n\nfunc hidden(t T) int { return t.N }\n")
	write("a/export_test.go", "package a\n\nvar Hidden = hidden\n")
	write("a/a_test.go", "package a_test\n\nimport (\n\t\"bridge/a\"\n\t\"bridge/b\"\n)\n\nvar _ = a.Hidden(b.Make())\n")
	write("b/b.go", "package b\n\nimport \"bridge/a\"\n\nfunc Make() a.T { return a.T{N: 1} }\n")

	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	// b is in the cache, type-checked against the plain a, before a's
	// tests are loaded.
	if _, err := l.Load("bridge/b"); err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadTests("bridge/a")
	if err != nil {
		t.Fatalf("external test using export_test.go failed to load: %v", err)
	}
	if len(pkgs) != 2 {
		t.Errorf("loaded %d test packages, want the in-package and the external one", len(pkgs))
	}
}
