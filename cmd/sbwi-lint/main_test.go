package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCommand builds sbwi-lint and drives both of its modes: the go
// vet tool protocol (-V=full, -flags, a vet run) and a standalone run,
// plus a bad -analyzers list.
func TestCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and runs go vet")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	bin := filepath.Join(t.TempDir(), "sbwi-lint")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	const root = "../.." // the module root, where package patterns resolve

	// run returns stdout, stderr and the exit code of name args in root.
	run := func(name string, args ...string) (string, string, int) {
		t.Helper()
		cmd := exec.Command(name, args...)
		cmd.Dir = root
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatalf("%s %v: %v", name, args, err)
		}
		return stdout.String(), stderr.String(), cmd.ProcessState.ExitCode()
	}

	if out, _, code := run(bin, "-V=full"); code != 0 || !regexp.MustCompile(`^sbwi-lint version sbwi-lint-[0-9a-f]+\n$`).MatchString(out) {
		t.Errorf("-V=full: exit %d, stdout %q", code, out)
	}
	if out, _, code := run(bin, "-flags"); code != 0 || strings.TrimSpace(out) != "[]" {
		t.Errorf("-flags: exit %d, stdout %q; want []", code, out)
	}
	if _, errOut, code := run(bin, "-analyzers", "nope", "./internal/kernels"); code != 1 || !strings.Contains(errOut, "nope") {
		t.Errorf("-analyzers nope: exit %d, stderr %q; want exit 1 naming nope", code, errOut)
	}
	if out, errOut, code := run(bin, "./internal/kernels"); code != 0 || out != "" {
		t.Errorf("standalone ./internal/kernels: exit %d, stdout %q, stderr %q; want exit 0 and no findings", code, out, errOut)
	}
	if _, errOut, code := run(goTool, "vet", "-vettool="+bin, "./internal/kernels"); code != 0 {
		t.Errorf("go vet -vettool ./internal/kernels: exit %d\n%s", code, errOut)
	}
}
