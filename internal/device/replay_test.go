package device

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/sm"
)

// TestRunTraceReplay exercises the one-launch entry point: a race-free
// launch records, replays, passes the internal stats backstop and
// returns Replayed with the recording run's memory image; a racy launch
// returns the full simulation's result with the reason logged.
func TestRunTraceReplay(t *testing.T) {
	b, ok := kernels.ByName("Transpose")
	if !ok {
		t.Fatal("Transpose missing")
	}
	var log bytes.Buffer
	dev, err := New(WithArch(sm.ArchSBISWI), WithReplayLog(&log))
	if err != nil {
		t.Fatal(err)
	}
	l, err := b.NewLaunch(true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dev.RunTraceReplay(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replayed {
		t.Error("race-free launch was not replayed")
	}
	if !bytes.Equal(l.Global, b.Expected()) {
		t.Error("recording run left a wrong memory image")
	}

	racy := mustProgram(t, "racy", `
	mov  r1, %tid
	mov  r2, %p0
	st.g [r2], r1
	exit
`)
	rl := &exec.Launch{Prog: racy, GridDim: 2, BlockDim: 64, Global: make([]byte, 64)}
	res, err = dev.RunTraceReplay(context.Background(), rl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed {
		t.Error("racy launch reported as replayed")
	}
	if !strings.Contains(log.String(), "outside the trace-replay validity domain") {
		t.Errorf("racy launch's fallback reason not logged:\n%s", log.String())
	}
}

const replayVerdictsPath = "testdata/replay_verdicts.golden"

// TestReplayVerdictsGolden pins the record-time race verdict of every
// suite kernel, one `kernel replayable` line each. The verdict comes
// from the law table's replay rows, which hold it the same on every
// architecture and on the flat and partitioned shapes. A verdict is a
// property of the kernel, not of how package replay finds it: a change
// to the analysis is compared against the fixture and never regenerates
// it; -update is for a change to the suite itself.
func TestReplayVerdictsGolden(t *testing.T) {
	var got strings.Builder
	verdicts := replayRows()[0].verdict
	for i, b := range kernels.All() {
		fmt.Fprintf(&got, "%s %v\n", b.Name, verdicts[i])
	}
	if *updateGolden {
		if err := os.WriteFile(replayVerdictsPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(replayVerdictsPath)
	if err != nil {
		t.Fatalf("read fixture (regenerate with -update): %v", err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d verdict lines, fixture has %d", len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("verdict %q, fixture says %q", gl[i], wl[i])
		}
	}
}
