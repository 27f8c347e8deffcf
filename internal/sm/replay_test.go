package sm

import (
	"context"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/progen"
	"repro/internal/replay"
	"repro/internal/sched"
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

// replayTrace re-times the launch from tr under cfg.
func replayTrace(t *testing.T, cfg Config, mk func() *exec.Launch, tr *replay.Trace) Stats {
	t.Helper()
	l := mk()
	s, err := replay.NewSession(tr, 0, l.GridDim)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunRangeOpts(context.Background(), cfg, l, 0, l.GridDim, RunOpts{Replay: s})
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats
}

// timingMutations enumerates in-domain configuration changes: every
// one re-times the kernel without touching what threads compute.
func timingMutations(arch Arch) []struct {
	name string
	mut  func(*Config)
} {
	muts := []struct {
		name string
		mut  func(*Config)
	}{
		{"exec-latency-1", func(c *Config) { c.ExecLatency = 1 }},
		{"exec-latency-32", func(c *Config) { c.ExecLatency = 32 }},
		{"shared-latency-9", func(c *Config) { c.SharedLatency = 9 }},
		{"issue-delay", func(c *Config) { c.IssueDelay += 2 }},
		{"scoreboard-2", func(c *Config) { c.ScoreboardEntries = 2 }},
		{"sfu-lsu-narrow", func(c *Config) { c.SFUWidth, c.LSUWidth = 2, 8 }},
		{"mem-latency", func(c *Config) { c.Mem.MemLatency = 700; c.Mem.BytesPerCycle = 2 }},
		{"l1-tiny", func(c *Config) { c.Mem.L1Bytes = 4096; c.Mem.L1Ways = 2 }},
		{"seed", func(c *Config) { c.Seed = 0xDEADBEEF }},
	}
	if arch != ArchBaseline {
		muts = append(muts, struct {
			name string
			mut  func(*Config)
		}{"mem-split", func(c *Config) { c.SplitOnMemDivergence = true }})
	}
	return muts
}

// TestReplayMatchesFullSimulation records each test kernel once per
// architecture and asserts that replaying the trace under mutated
// timing configurations produces statistics bit-identical to full
// simulations of those configurations.
func TestReplayMatchesFullSimulation(t *testing.T) {
	kernelsUnderTest := []struct {
		name, src string
		params    []uint32
		words     int
	}{
		{"divergent-loop", shortLoopSrc, []uint32{0}, 4 * 256},
		{"mem-idle", shortMemSrc, []uint32{0, 4 * 256 * 4}, 4*256 + 65536},
	}
	for _, k := range kernelsUnderTest {
		for _, a := range []Arch{ArchBaseline, ArchSBISWI} {
			k, a := k, a
			t.Run(k.name+"/"+a.String(), func(t *testing.T) {
				t.Parallel()
				base := Configure(a)
				p := assembleFor(t, k.name, k.src, a)
				mk := func() *exec.Launch { return newLaunch(p, 4, 256, k.words, k.params...) }

				tr, recStats := recordTrace(t, base, mk)
				if !tr.Replayable {
					t.Fatalf("race-free kernel recorded as non-replayable: %s", tr.Reason)
				}
				if got := replayTrace(t, base, mk, tr); got != recStats {
					t.Fatalf("same-config replay diverged\nreplay: %+v\nfull:   %+v", got, recStats)
				}
				for _, m := range timingMutations(a) {
					cfg := Configure(a)
					m.mut(&cfg)
					full := mk()
					res, err := RunRangeOpts(context.Background(), cfg, full, 0, full.GridDim, RunOpts{})
					if err != nil {
						t.Fatalf("%s: %v", m.name, err)
					}
					if got := replayTrace(t, cfg, mk, tr); got != res.Stats {
						t.Errorf("%s: replay diverged from full simulation\nreplay: %+v\nfull:   %+v",
							m.name, got, res.Stats)
					}
				}
			})
		}
	}
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

// TestReplayFuzz is the property test over random structured kernels:
// for each generated program and each architecture, record once, then
// assert replay under random in-domain timing mutations reproduces the
// full simulation's statistics bit-for-bit. Generated programs write
// only out[gid], so every trace must pass the race analysis.
func TestReplayFuzz(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 5
	}
	muts := []func(*Config){
		func(c *Config) { c.ExecLatency = 3 },
		func(c *Config) { c.IssueDelay = 4; c.ScoreboardEntries = 2 },
		func(c *Config) { c.Mem.MemLatency = 41; c.Mem.HitLatency = 9 },
		func(c *Config) { c.Seed = 0x1234; c.Shuffle = sched.ShuffleXorRev },
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		b := progen.Kernel(seed, 6, 2, 192)
		for _, a := range []Arch{ArchBaseline, ArchSBI, ArchSBISWI} {
			mk := func() *exec.Launch { return benchLaunch(t, b, a) }
			base := Configure(a)
			tr, recStats := recordTrace(t, base, mk)
			if !tr.Replayable {
				t.Fatalf("seed %d on %s: generated kernel flagged racy: %s\n%s", seed, a, tr.Reason, b.Source)
			}
			if got := replayTrace(t, base, mk, tr); got != recStats {
				t.Fatalf("seed %d on %s: same-config replay diverged\n%s", seed, a, b.Source)
			}
			mut := muts[int(seed)%len(muts)]
			cfg := Configure(a)
			mut(&cfg)
			res, err := RunRangeOpts(context.Background(), cfg, mk(), 0, b.Grid, RunOpts{})
			if err != nil {
				t.Fatalf("seed %d on %s: %v", seed, a, err)
			}
			if got := replayTrace(t, cfg, mk, tr); got != res.Stats {
				t.Fatalf("seed %d on %s: replay diverged from full simulation under mutation\n%s",
					seed, a, b.Source)
			}
		}
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
