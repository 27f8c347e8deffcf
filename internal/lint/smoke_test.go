package lint_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestRepoLintClean runs the full analyzer suite over every package in
// the module, _test.go files included, and asserts zero unsuppressed
// findings. It is the suite's only runner: CI applies it through the
// test job's `go test ./...`. A finding here means either a real
// regression or a waiver missing its justification; fix the code or
// annotate it, never this test.
func TestRepoLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}

	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == "/dev/null" {
		t.Fatal("not inside a module")
	}
	root := filepath.Dir(gomod)

	pkgs, err := lint.LoadPackages(root, "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}

	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, d := range lint.RunAnalyzers(pkg, lint.All()) {
			if s := d.String(); !seen[s] {
				seen[s] = true
				t.Errorf("unsuppressed finding: %s", s)
			}
		}
	}
}
