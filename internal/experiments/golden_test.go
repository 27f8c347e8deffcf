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

// replayedCells is how many cells of that pass are re-timed from a
// recording rather than simulated: every cell of a thread-frontier
// program that another point runs too, but for BFS, whose program is
// outside the replay validity domain, and for each program's recording.
// A change that silently stops the routing, or makes more kernels fall
// back, moves it.
const replayedCells = 247

// TestTablesGolden pins every experiment's rendered text, in
// Experiments order, to testdata/tables.golden (generated before the
// sweep engine replaced the per-figure builders: the refactor had to
// reproduce it byte for byte), the Progress contract
// bench/workloads.go's progressLog.tally parses, and how much of the
// pass trace replay re-times.
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	const path = "testdata/tables.golden"
	var progress, replayLog, got bytes.Buffer
	r := NewRunner()
	r.Progress, r.replayLog = &progress, &replayLog
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

	if r.replayed != replayedCells {
		t.Errorf("a fresh runner re-timed %d cells from recordings, want %d", r.replayed, replayedCells)
	}
	// The one program outside the domain is BFS's, recorded once; no
	// replay falls back.
	const bfs = "device: the thread-frontier program of BFS is outside the trace-replay validity domain"
	if log := replayLog.String(); strings.Count(log, "\n") != 1 || !strings.HasPrefix(log, bfs) {
		t.Errorf("a fresh runner's trace-replay log is\n%s\nwant one line: %s…", log, bfs)
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
