package device

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/sm"
)

// TestRunTraceReplay drives the WithTraceReplay fill through a
// one-entry sweep of two points: two devices sharing one SimCache, the
// second at a timing mutation. A race-free benchmark records at the
// first point and replays at the second, with the statistics of a fresh
// full simulation there; a racy one records, runs the second point in
// full and logs its reason once.
func TestRunTraceReplay(t *testing.T) {
	// Every thread stores the same value to one word: the race analysis
	// flags the conflicting stores all the same, and the final image is
	// deterministic, so the reference oracle holds.
	var plain *isa.Program
	racy := &kernels.Benchmark{
		Name: "racy", Grid: 2, Block: 64,
		Source: `
	mov  r1, 7
	mov  r2, %p0
	st.g [r2], r1
	exit
`,
		Setup: func(*kernels.Benchmark) ([]byte, [isa.NumParams]uint32) {
			return make([]byte, 64), [isa.NumParams]uint32{}
		},
		Reference: func(b *kernels.Benchmark, global []byte, params [isa.NumParams]uint32) {
			l := &exec.Launch{Prog: plain, GridDim: b.Grid, BlockDim: b.Block, Params: params, Global: global}
			if _, err := exec.RunReference(l, 32); err != nil {
				panic(err)
			}
		},
	}
	plain, err := racy.Program(false)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	slower := tweaked(sm.ArchSBISWI, func(c *sm.Config) { c.Mem.MemLatency = 700 })
	cache := NewSimCache()
	var log bytes.Buffer
	for _, b := range []*kernels.Benchmark{mustBench(t, "Transpose"), racy} {
		var res [2]*sm.Result
		for i, point := range []Option{WithArch(sm.ArchSBISWI), slower} {
			got, err := mustNew(point, WithSimCache(cache), WithTraceReplay(true), WithReplayLog(&log)).RunSuite(ctx, []*kernels.Benchmark{b})
			if err != nil || got[0].Err != nil {
				t.Fatalf("%s at point %d: %v / %v", b.Name, i, err, got[0].Err)
			}
			res[i] = got[0].Result
		}
		full, err := mustNew(slower).RunSuite(ctx, []*kernels.Benchmark{b})
		if err != nil || full[0].Err != nil {
			t.Fatalf("%s full simulation: %v / %v", b.Name, err, full[0].Err)
		}
		if want := b != racy; res[0].Replayed || res[1].Replayed != want {
			t.Errorf("%s: replayed %v at the recording point and %v at the second, want false and %v",
				b.Name, res[0].Replayed, res[1].Replayed, want)
		}
		if res[1].Stats != full[0].Result.Stats {
			t.Errorf("%s: second point's stats differ from a full simulation there", b.Name)
		}
	}
	if n := strings.Count(log.String(), "racy on SBI+SWI is outside the trace-replay validity domain"); n != 1 || strings.Count(log.String(), "\n") != 1 {
		t.Errorf("want the racy kernel's fallback reason logged once and nothing else:\n%s", log.String())
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
