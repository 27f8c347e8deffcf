package device

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/kernels"
	"repro/internal/leakcheck"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sm"
)

// The hardened failure plane's unit tests: panic conversion, stream
// isolation, the livelock path through the full stack and the
// wall-clock watchdog. The chaos suite
// (chaos_test.go) exercises the same machinery under randomized
// multi-site fault storms.

func TestSafeRunConvertsPanic(t *testing.T) {
	res, err := safeRun("boom op", func() (*sm.Result, error) { panic("kaboom") })
	if res != nil {
		t.Fatalf("result %v after panic, want nil", res)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v (%T), want *PanicError", err, err)
	}
	if pe.Op != "boom op" || pe.Value != "kaboom" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = {Op:%q Value:%v stack:%d bytes}, want op, value and a stack", pe.Op, pe.Value, len(pe.Stack))
	}
}

// TestPanicErrorSeesThroughToErrors pins the unwrap contract fault
// attribution depends on: a panic whose value is an error stays visible
// to errors.Is/As through the panic-to-error conversion.
func TestPanicErrorSeesThroughToErrors(t *testing.T) {
	inner := &faultinject.Error{Site: faultinject.SiteMemAccess, Kind: faultinject.KindError, Hit: 3}
	_, err := safeRun("mem", func() (*sm.Result, error) { panic(inner) })
	var fe *faultinject.Error
	if !errors.As(err, &fe) || fe != inner {
		t.Errorf("injected fault invisible through PanicError: %v", err)
	}
}

// TestStreamPanicIsolation: a panic injected into one stream launch
// fails that launch's future (and poisons its FIFO successors) while
// the device, its queue and fresh streams stay fully usable.
func TestStreamPanicIsolation(t *testing.T) {
	leakcheck.Check(t)
	plan := faultinject.NewPlan(1, faultinject.Spec{
		{Site: faultinject.SiteStreamDispatch, Kind: faultinject.KindPanic, Hits: []uint64{1}},
	})
	dev, err := New(WithArch(sm.ArchSBISWI), WithWorkers(2), WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	s := dev.NewStream()
	victim := s.Launch(ctx, counterProgram(t))
	poisoned := s.Launch(ctx, counterProgram(t))

	var pe *PanicError
	if _, err := victim.Wait(); !errors.As(err, &pe) {
		t.Fatalf("faulted launch: err %v, want *PanicError", err)
	}
	if !faultinject.IsInjected(pe) {
		t.Errorf("panic value should carry the injected fault: %v", pe)
	}
	if _, err := poisoned.Wait(); err == nil || !strings.Contains(err.Error(), "not run") {
		t.Errorf("FIFO successor: err %v, want poison", err)
	} else if !errors.As(err, &pe) {
		t.Errorf("poison should wrap the originating panic: %v", err)
	}

	// The device survives: a fresh stream simulates cleanly (hit 1 was
	// the only scheduled fault) and Synchronize drains to idle.
	fresh := dev.NewStream().Launch(ctx, counterProgram(t))
	if _, err := fresh.Wait(); err != nil {
		t.Errorf("fresh stream after panic: %v", err)
	}
	if err := dev.Synchronize(ctx); err != nil {
		t.Errorf("Synchronize after panic: %v", err)
	}
}

// livelockLaunch builds a kernel that can never retire: the cycle
// bound is the only way out.
func livelockLaunch(t *testing.T) *exec.Launch {
	t.Helper()
	prog := mustProgram(t, "livelock", `
spin:
	bra  spin
	exit
`)
	return &exec.Launch{Prog: prog, GridDim: 1, BlockDim: 32}
}

// TestLivelockFailsOnlyItsLaunch drives the livelock error path
// through the full device stack: Stream.Launch → Pending.Wait surfaces
// a typed *sm.LivelockError carrying the partial-state snapshot, the
// stream poisons its successors, and the device stays usable.
func TestLivelockFailsOnlyItsLaunch(t *testing.T) {
	leakcheck.Check(t)
	dev, err := New(WithWorkers(2), tweaked(sm.ArchSBISWI, func(c *sm.Config) { c.MaxCycles = 2000 }))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	s := dev.NewStream()
	victim := s.Launch(ctx, livelockLaunch(t))
	poisoned := s.Launch(ctx, counterProgram(t))

	_, err = victim.Wait()
	var le *sm.LivelockError
	if !errors.As(err, &le) {
		t.Fatalf("livelocked launch: err %v (%T), want *sm.LivelockError", err, err)
	}
	if le.Limit != 2000 || le.Cycle < le.Limit {
		t.Errorf("LivelockError limit/cycle = %d/%d, want cycle >= limit 2000", le.Limit, le.Cycle)
	}
	if le.State == "" {
		t.Error("LivelockError carries no partial-state snapshot")
	}
	if _, err := poisoned.Wait(); err == nil || !strings.Contains(err.Error(), "not run") {
		t.Errorf("FIFO successor of livelock: err %v, want poison", err)
	}
	if _, err := dev.NewStream().Launch(ctx, counterProgram(t)).Wait(); err != nil {
		t.Errorf("fresh stream after livelock: %v", err)
	}
	if err := dev.Synchronize(ctx); err != nil {
		t.Errorf("Synchronize after livelock: %v", err)
	}
}

// TestLivelockNeverCached: suite entries that die on the cycle bound
// must not poison the simulation cache — a later pass with a sane
// configuration (or a follower during the failing pass) re-runs
// instead of inheriting the failure.
func TestLivelockNeverCached(t *testing.T) {
	leakcheck.Check(t)
	suite := []*kernels.Benchmark{mustBench(t, "Transpose"), mustBench(t, "Histogram")}
	cache := NewSimCache()
	ctx := context.Background()

	sick, err := New(WithWorkers(2), WithSimCache(cache),
		tweaked(sm.ArchSBISWI, func(c *sm.Config) { c.MaxCycles = 50 }))
	if err != nil {
		t.Fatal(err)
	}
	results, err := sick.RunSuite(ctx, suite)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		var le *sm.LivelockError
		if !errors.As(r.Err, &le) {
			t.Fatalf("%s under MaxCycles=50: err %v, want *sm.LivelockError", r.Bench.Name, r.Err)
		}
	}
	if n := cache.Len(); n != 0 {
		t.Fatalf("cache holds %d entries after livelocked pass, want 0", n)
	}

	// The same cache serves a healthy device: everything simulates
	// (fresh fills, not inherited failures) and is memoized.
	well, err := New(WithArch(sm.ArchSBISWI), WithWorkers(2), WithSimCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	results, err = well.RunSuite(ctx, suite)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("%s on healthy device sharing the cache: %v", r.Bench.Name, r.Err)
		}
	}
	if n := cache.Len(); n != len(suite) {
		t.Errorf("cache holds %d entries after healthy pass, want %d", n, len(suite))
	}
}

// TestWatchdogTimesOutStuckLaunch: a launch exceeding its wall-clock
// bound completes its Pending with a *sm.TimeoutError carrying the
// stuck SM's partial state, poisons its FIFO successors, and leaves
// the device usable.
func TestWatchdogTimesOutStuckLaunch(t *testing.T) {
	leakcheck.Check(t)
	dev, err := New(WithArch(sm.ArchSBISWI), WithWorkers(2), WithLaunchTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	s := dev.NewStream()
	victim := s.Launch(ctx, spinLaunch(t))
	poisoned := s.Launch(ctx, counterProgram(t))

	_, err = victim.Wait()
	if !errors.Is(err, sm.ErrLaunchTimeout) {
		t.Fatalf("stuck launch: err %v, want errors.Is(err, sm.ErrLaunchTimeout)", err)
	}
	var te *sm.TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("stuck launch: err %v (%T), want *sm.TimeoutError", err, err)
	}
	if te.State == "" {
		t.Error("TimeoutError carries no partial-state snapshot")
	}
	if _, err := poisoned.Wait(); err == nil || !strings.Contains(err.Error(), "not run") {
		t.Errorf("FIFO successor of timeout: err %v, want poison", err)
	}
	if _, err := dev.NewStream().Launch(ctx, counterProgram(t)).Wait(); err != nil {
		t.Errorf("fresh stream after timeout: %v", err)
	}
	if err := dev.Synchronize(ctx); err != nil {
		t.Errorf("Synchronize after timeout: %v", err)
	}
}

// TestWatchdogDiagnosesMemsysInterleaver routes the timeout through
// the shared-clock memsys driver: the abort must be rendered through a
// live sm.Runner (Runner.Diagnose), so even the partitioned path
// reports a partial-state snapshot instead of a bare context error.
func TestWatchdogDiagnosesMemsysInterleaver(t *testing.T) {
	leakcheck.Check(t)
	dev, err := New(WithArch(sm.ArchSBISWI), WithSMs(2), WithWorkers(2),
		WithGridPartition(true), WithL2(mem.DefaultL2()), WithInterconnect(noc.Default()),
		WithLaunchTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	_, err = dev.Run(context.Background(), spinLaunch(t))
	if !errors.Is(err, sm.ErrLaunchTimeout) {
		t.Fatalf("partitioned memsys launch: err %v, want errors.Is(err, sm.ErrLaunchTimeout)", err)
	}
	var te *sm.TimeoutError
	if !errors.As(err, &te) || te.State == "" {
		t.Fatalf("partitioned memsys launch: err %v, want *sm.TimeoutError with partial state", err)
	}
}

// TestRunTraceReplayPanicIsolation: a panic below Run, and below the
// *recording* fill of a WithTraceReplay RunSuite entry (the hot
// memory-access site raises error-class faults as panics), must come
// back as a *PanicError, not escape into the caller's goroutine, and
// leave the device usable.
func TestRunTraceReplayPanicIsolation(t *testing.T) {
	leakcheck.Check(t)
	ctx := context.Background()
	for _, entry := range []string{"Run", "RunSuite"} {
		plan := faultinject.NewPlan(5, faultinject.Spec{
			{Site: faultinject.SiteMemAccess, Kind: faultinject.KindError, Hits: []uint64{1}},
		})
		dev, err := New(WithArch(sm.ArchSBISWI), WithWorkers(2),
			WithL2(mem.DefaultL2()), WithInterconnect(noc.Default()),
			WithFaultPlan(plan), WithTraceReplay(true), WithReplayLog(&bytes.Buffer{}))
		if err != nil {
			t.Fatal(err)
		}
		run := func() error {
			_, err := dev.Run(ctx, mustLaunch(t, "Transpose"))
			return err
		}
		if entry == "RunSuite" {
			run = func() error {
				res, err := dev.RunSuite(ctx, []*kernels.Benchmark{mustBench(t, "Transpose")})
				return errors.Join(err, res[0].Err)
			}
		}
		var pe *PanicError
		if err := run(); !errors.As(err, &pe) || !faultinject.IsInjected(err) {
			t.Fatalf("%s behind a mem-access fault: err %v, want a *PanicError carrying the injected fault", entry, err)
		}
		// Hit 1 was the only scheduled fault: the same device runs clean.
		if err := run(); err != nil {
			t.Errorf("%s on the same device after the panic: %v", entry, err)
		}
		if err := dev.Synchronize(ctx); err != nil {
			t.Errorf("Synchronize after %s panic: %v", entry, err)
		}
	}
}

// TestReplayFaultFallsBackLoudly: a fault injected into the replay
// path degrades to full simulation with the fallback logged — never a
// silent wrong (or missing) number.
func TestReplayFaultFallsBackLoudly(t *testing.T) {
	leakcheck.Check(t)
	plan := faultinject.NewPlan(11, faultinject.Spec{
		{Site: faultinject.SiteReplayFallback, Kind: faultinject.KindPanic, Every: 1},
	})
	var diag bytes.Buffer
	cache := NewSimCache()
	point := func(o Option) *Device {
		dev, err := New(o, WithWorkers(2), WithSimCache(cache),
			WithTraceReplay(true), WithFaultPlan(plan), WithReplayLog(&diag))
		if err != nil {
			t.Fatal(err)
		}
		return dev
	}
	ctx := context.Background()
	suite := []*kernels.Benchmark{mustBench(t, "Transpose")}

	// The first sweep point records the trace without replaying (the
	// fault site sits on the replay path only). The second, at a timing
	// mutation, replays it — every replay attempt panics, so it must
	// fall back to a full simulation and still produce the result.
	first, err := point(WithArch(sm.ArchSBISWI)).RunSuite(ctx, suite)
	if err != nil || first[0].Err != nil {
		t.Fatalf("recording point: %v / %v", err, first[0].Err)
	}
	second, err := point(tweaked(sm.ArchSBISWI, func(c *sm.Config) { c.Mem.MemLatency = 700 })).RunSuite(ctx, suite)
	if err != nil || second[0].Err != nil || second[0].Result.Replayed {
		t.Fatalf("second point with a panicking replay path: %v / %v, want a full simulation", err, second[0].Err)
	}
	if !strings.Contains(diag.String(), "fell back") {
		t.Errorf("replay degradation was silent; diagnostics: %q", diag.String())
	}
}

// mustBench fetches a suite benchmark by name.
func mustBench(t *testing.T, name string) *kernels.Benchmark {
	t.Helper()
	b, ok := kernels.ByName(name)
	if !ok {
		t.Fatalf("benchmark %s missing", name)
	}
	return b
}

// mustLaunch builds a fresh launch of a suite benchmark.
func mustLaunch(t *testing.T, name string) *exec.Launch {
	t.Helper()
	l, err := mustBench(t, name).NewLaunch(true)
	if err != nil {
		t.Fatal(err)
	}
	return l
}
