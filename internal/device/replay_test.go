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
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/replay"
	"repro/internal/sm"
)

// TestTraceReplaySuiteSweepEquivalence is the end-to-end acceptance
// test for the trace-replay engine: a timing sweep routed through
// WithTraceReplay — one shared SimCache, so the first point records and
// later points replay — must produce statistics bit-identical to fresh
// full-simulation devices at every sweep point, while the racy
// benchmarks (BFS) fall back to full simulation with the reason logged
// exactly once per benchmark.
func TestTraceReplaySuiteSweepEquivalence(t *testing.T) {
	suite := kernels.Irregular()
	cache := NewSimCache()
	var log bytes.Buffer
	lats := []int64{2, 8, 32}
	if testing.Short() {
		lats = []int64{2, 32}
	}
	replayed := 0
	for _, lat := range lats {
		cfg := sm.Configure(sm.ArchSBISWI)
		cfg.ExecLatency = lat
		traced, err := New(WithConfig(cfg), WithSimCache(cache), WithTraceReplay(true), WithReplayLog(&log))
		if err != nil {
			t.Fatal(err)
		}
		full, err := New(WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		rt, err := traced.RunSuite(context.Background(), suite)
		if err != nil {
			t.Fatal(err)
		}
		rf, err := full.RunSuite(context.Background(), suite)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rt {
			if rt[i].Err != nil || rf[i].Err != nil {
				t.Fatalf("lat %d: %s: traced err %v, full err %v", lat, rt[i].Name(), rt[i].Err, rf[i].Err)
			}
			if rt[i].Result.Stats != rf[i].Result.Stats {
				t.Errorf("lat %d: %s: replay-routed stats diverged from full simulation\n got: %+v\nwant: %+v",
					lat, rt[i].Name(), rt[i].Result.Stats, rf[i].Result.Stats)
			}
			if rt[i].Result.Replayed {
				replayed++
				if rt[i].Name() == "BFS" {
					t.Errorf("lat %d: racy BFS was replayed", lat)
				}
			}
		}
	}
	if replayed == 0 {
		t.Error("no sweep point was served by replay — the engine never engaged")
	}
	if n := strings.Count(log.String(), "outside the trace-replay validity domain"); n != 1 {
		t.Errorf("fallback reason logged %d times, want exactly once (per benchmark, per trace key):\n%s", n, log.String())
	}
	if !strings.Contains(log.String(), "BFS") {
		t.Errorf("fallback log does not name the racy benchmark:\n%s", log.String())
	}
}

// TestTraceReplayMemsysEquivalence pins replay equivalence on the
// heaviest timing path: partitioned multi-SM waves against the shared
// inline L2/NoC clock, swept over interconnect bandwidth. Stats and the
// modeled device wall-clock must match full simulation bit-for-bit.
// Run under -race in CI, this also proves replaying waves may share the
// launch read-only.
func TestTraceReplayMemsysEquivalence(t *testing.T) {
	suite := memsysSuite(t)
	cache := NewSimCache()
	var log bytes.Buffer
	for _, bw := range []float64{32, 8} {
		nc := noc.Default()
		nc.BytesPerCycle = bw
		opts := []Option{
			WithArch(sm.ArchSBISWI),
			WithSMs(4),
			WithGridPartition(true),
			WithL2(mem.DefaultL2()),
			WithInterconnect(nc),
		}
		traced, err := New(append([]Option{WithSimCache(cache), WithTraceReplay(true), WithReplayLog(&log)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		full, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := traced.RunSuite(context.Background(), suite)
		if err != nil {
			t.Fatal(err)
		}
		rf, err := full.RunSuite(context.Background(), suite)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rt {
			if rt[i].Err != nil || rf[i].Err != nil {
				t.Fatalf("bw %g: %s: traced err %v, full err %v", bw, rt[i].Name(), rt[i].Err, rf[i].Err)
			}
			if rt[i].Result.Stats != rf[i].Result.Stats {
				t.Errorf("bw %g: %s: replay-routed stats diverged from full simulation", bw, rt[i].Name())
			}
			if got, want := rt[i].Result.DeviceCycles(), rf[i].Result.DeviceCycles(); got != want {
				t.Errorf("bw %g: %s: replayed DeviceCycles %d != full simulation's %d", bw, rt[i].Name(), got, want)
			}
		}
	}
}

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
// suite kernel on every architecture, flat and partitioned over four
// SMs, one `kernel arch flat|partitioned replayable` line each. A
// verdict is a property of the kernel, not of how package replay finds
// it: a change to the analysis is compared against the fixture and
// never regenerates it; -update is for a change to the suite itself.
func TestReplayVerdictsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("records 220 launches")
	}
	var got strings.Builder
	for _, b := range kernels.All() {
		for _, a := range sm.Architectures() {
			for _, shape := range []struct {
				name string
				opts []Option
			}{
				{"flat", nil},
				{"partitioned", []Option{WithSMs(4), WithGridPartition(true)}},
			} {
				dev, err := New(append([]Option{WithArch(a)}, shape.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				rec := replay.NewRecorder(b.Grid, b.Block)
				if _, err := dev.runBenchmark(context.Background(), b, dev.partition, rec, nil); err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&got, "%s %s %s %v\n", b.Name, a, shape.name, rec.Finalize().Replayable)
			}
		}
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
