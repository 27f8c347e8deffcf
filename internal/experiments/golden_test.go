package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden from the tables this build renders")

// progressCells is the number of simulations one pass over Experiments
// logs on a fresh runner: every plain-sweep cell no earlier experiment
// simulated. bench/ counts these lines as the launches of its
// experiments-pass workload, so the number is part of the contract.
const progressCells = 254

// TestTablesGolden pins every experiment's rendered text, in
// Experiments order, to testdata/tables.golden (generated before the
// sweep engine replaced the per-figure builders: the refactor had to
// reproduce it byte for byte), and the Progress contract
// bench/workloads.go's progressLog.tally parses.
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	const path = "testdata/tables.golden"
	var progress, got bytes.Buffer
	r := NewRunner()
	r.Progress = &progress
	for _, name := range Experiments {
		tab, err := r.Run(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintln(&got, tab.Text())
	}

	lines := strings.Split(strings.TrimSpace(progress.String()), "\n")
	if len(lines) != progressCells {
		t.Errorf("a fresh runner logged %d Progress lines, want %d", len(lines), progressCells)
	}
	for _, line := range lines {
		var name, arch string
		var ipc float64
		var cycles int64
		if _, err := fmt.Sscanf(strings.TrimSpace(line), "%s %s IPC %f (%d cycles)", &name, &arch, &ipc, &cycles); err != nil {
			t.Errorf("Progress line %q does not parse: %v", line, err)
		}
	}

	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("tables differ from %s at line %d:\n got %q\nwant %q", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("tables differ from %s in length: %d lines, want %d", path, len(gl), len(wl))
	}
}
