package sm

import (
	"context"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/progen"
	"repro/internal/replay"
)

// recordTrace runs one full simulation of the launch builder's kernel
// under cfg while recording, and returns the finalized trace with the
// recording run's statistics.
func recordTrace(t *testing.T, cfg Config, mk func() *exec.Launch) (*replay.Trace, Stats) {
	t.Helper()
	l := mk()
	rec := replay.NewRecorder(l.GridDim, l.BlockDim)
	res, err := RunRangeOpts(context.Background(), cfg, l, 0, l.GridDim, RunOpts{Record: rec.Sink()})
	if err != nil {
		t.Fatal(err)
	}
	return rec.Finalize(), res.Stats
}

// TestReplayLeavesMemoryUntouched pins the central replay property: a
// replayed run never reads or writes the global image.
func TestReplayLeavesMemoryUntouched(t *testing.T) {
	cfg := Configure(ArchSBISWI)
	p := assembleFor(t, "divergent-loop", shortLoopSrc, ArchSBISWI)
	mk := func() *exec.Launch { return newLaunch(p, 4, 256, 4*256, 0) }
	tr, _ := recordTrace(t, cfg, mk)

	l := mk()
	for i := range l.Global {
		l.Global[i] = 0xAB
	}
	s, err := replay.NewSession(tr, 0, l.GridDim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunRangeOpts(context.Background(), cfg, l, 0, l.GridDim, RunOpts{Replay: s}); err != nil {
		t.Fatal(err)
	}
	for i, b := range l.Global {
		if b != 0xAB {
			t.Fatalf("replay wrote global memory at byte %d", i)
		}
	}
}

// racyReduceSrc makes every thread store a thread-varying value to one
// shared global word: classic unordered write sharing, so the trace
// must be rejected by the race analysis.
const racyReduceSrc = `
	mov  r1, %tid
	mov  r2, %p0
	st.g [r2], r1
	exit
`

func TestRecordFlagsRacyKernel(t *testing.T) {
	cfg := Configure(ArchSBISWI)
	p := assembleFor(t, "racy-reduce", racyReduceSrc, ArchSBISWI)
	mk := func() *exec.Launch { return newLaunch(p, 2, 64, 16, 0) }
	tr, _ := recordTrace(t, cfg, mk)
	if tr.Replayable {
		t.Fatal("racy kernel recorded as replayable")
	}
	if !strings.Contains(tr.Reason, "written") {
		t.Fatalf("unhelpful race reason: %q", tr.Reason)
	}
	if _, err := replay.NewSession(tr, 0, 2); err == nil {
		t.Fatal("session over the racy trace accepted")
	}
}

// TestReplayDesyncIsLoud replays a trace against a different kernel:
// the stream cursors must detect the divergence and fail, never return
// statistics silently computed from the wrong table.
func TestReplayDesyncIsLoud(t *testing.T) {
	cfg := Configure(ArchSBISWI)
	pRec := assembleFor(t, "mem-idle", shortMemSrc, ArchSBISWI)
	mkRec := func() *exec.Launch { return newLaunch(pRec, 4, 256, 4*256+65536, 0, 4*256*4) }
	tr, _ := recordTrace(t, cfg, mkRec)

	pOther := assembleFor(t, "divergent-loop", shortLoopSrc, ArchSBISWI)
	l := newLaunch(pOther, 4, 256, 4*256, 0)
	s, err := replay.NewSession(tr, 0, l.GridDim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunRangeOpts(context.Background(), cfg, l, 0, l.GridDim, RunOpts{Replay: s}); err == nil {
		t.Fatal("replaying the wrong kernel's trace succeeded silently")
	}
}

func TestRunOptsValidation(t *testing.T) {
	cfg := Configure(ArchSBISWI)
	p := assembleFor(t, "divergent-loop", shortLoopSrc, ArchSBISWI)
	l := newLaunch(p, 4, 256, 4*256, 0)

	rec := replay.NewRecorder(4, 256)
	tr, _ := recordTrace(t, cfg, func() *exec.Launch { return newLaunch(p, 4, 256, 4*256, 0) })
	s, err := replay.NewSession(tr, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunRangeOpts(context.Background(), cfg, l, 0, 4, RunOpts{Record: rec.Sink(), Replay: s}); err == nil {
		t.Fatal("recording and replaying at once accepted")
	}
	wrong := replay.NewRecorder(8, 128)
	if _, err := RunRangeOpts(context.Background(), cfg, l, 0, 4, RunOpts{Record: wrong.Sink()}); err == nil {
		t.Fatal("recorder with wrong geometry accepted")
	}
	if _, err := RunRangeOpts(context.Background(), cfg, l, 0, 2, RunOpts{Replay: s}); err == nil {
		t.Fatal("session over the wrong CTA range accepted")
	}
}

// TestReplayFuzzRacy mutates generated programs into racy ones (every
// thread also stores to word 0) and asserts the recorder always flags
// them — an out-of-domain kernel must never replay silently.
func TestReplayFuzzRacy(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		b := progen.Kernel(seed, 4, 2, 192)
		// Every thread additionally stores its (thread-varying) checksum
		// to global word 0 just before exiting.
		b.Source = strings.Replace(b.Source, "\texit",
			"\tmov r15, %p0\n\tst.g [r15], r13\n\texit", 1)
		tr, _ := recordTrace(t, Configure(ArchSBISWI), func() *exec.Launch { return benchLaunch(t, b, ArchSBISWI) })
		if tr.Replayable {
			t.Fatalf("seed %d: racy variant recorded as replayable", seed)
		}
	}
}
