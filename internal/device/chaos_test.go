package device

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/kernels"
	"repro/internal/leakcheck"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sm"
)

// The chaos suite: seeded multi-site fault storms against the full
// device stack. Every test follows the same contract:
//
//   - goroutine hygiene: the device drains to idle and the module's
//     goroutine baseline is restored (leakcheck);
//   - fault attribution: an entry either succeeds with statistics
//     bit-identical to the fault-free run, or fails with an error
//     attributable to the storm (injected fault, panic conversion,
//     cancellation, watchdog) — never a silent wrong number;
//   - no poisoning: after Disarm the same device and cache run the
//     whole workload clean, proving failed results never entered the
//     cache and the device survived the storm undamaged.
//
// Schedules are seeded, so a failing storm replays exactly.

// chaosSuite is a cheap 4-benchmark subset: two multi-wave irregulars,
// two single-wave regulars.
func chaosSuite(t *testing.T) []*kernels.Benchmark {
	t.Helper()
	var out []*kernels.Benchmark
	for _, name := range []string{"Transpose", "Histogram", "MatrixMul", "BlackScholes"} {
		out = append(out, mustBench(t, name))
	}
	return out
}

// goldenStats runs the suite fault-free on an equivalent device and
// returns per-benchmark statistics.
func goldenStats(t *testing.T, suite []*kernels.Benchmark, opts ...Option) map[string]sm.Stats {
	t.Helper()
	dev, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	results, err := dev.RunSuite(context.Background(), suite)
	if err != nil {
		t.Fatal(err)
	}
	golden := make(map[string]sm.Stats, len(results))
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("fault-free golden run: %s: %v", r.Bench.Name, r.Err)
		}
		golden[r.Bench.Name] = r.Result.Stats
	}
	return golden
}

// stormError reports whether err is attributable to the fault storm:
// an injected fault (seen through any wrapping, including
// panic-to-error conversion), a device panic conversion, a
// cancellation, a watchdog timeout, or stream poison wrapping one of
// those.
func stormError(err error) bool {
	var pe *PanicError
	return faultinject.IsInjected(err) ||
		errors.As(err, &pe) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, sm.ErrLaunchTimeout)
}

// checkEntries asserts the per-entry chaos contract: success is
// bit-identical to golden, failure is attributable to the storm.
func checkEntries(t *testing.T, tag string, results []*SuiteResult, golden map[string]sm.Stats) {
	t.Helper()
	for _, r := range results {
		if r.Err != nil {
			if !stormError(r.Err) {
				t.Errorf("%s: %s failed outside the storm's fault classes: %v", tag, r.Bench.Name, r.Err)
			}
			continue
		}
		if !reflect.DeepEqual(r.Result.Stats, golden[r.Bench.Name]) {
			t.Errorf("%s: %s survived the storm but its statistics diverged from the fault-free run", tag, r.Bench.Name)
		}
	}
}

// TestChaosSuite storms the batch path: errors, panics, delays and
// cancellations across the suite-worker, cache-fill and queue-acquire
// sites, under -race in CI. An entry hit by a fault fails, and the
// post-disarm pass re-runs it into the cache.
func TestChaosSuite(t *testing.T) {
	leakcheck.Check(t)
	suite := chaosSuite(t)
	golden := goldenStats(t, suite, WithArch(sm.ArchSBISWI), WithWorkers(4))
	ctx := context.Background()

	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		plan := faultinject.NewPlan(seed, faultinject.Spec{
			{Site: faultinject.SiteSuiteWorker, Kind: faultinject.KindError, Prob: 0.3},
			{Site: faultinject.SiteCacheFill, Kind: faultinject.KindPanic, Prob: 0.2},
			{Site: faultinject.SiteQueueAcquire, Kind: faultinject.KindDelay, Prob: 0.3, Delay: time.Millisecond},
			{Site: faultinject.SiteQueueAcquire, Kind: faultinject.KindCancel, Prob: 0.1},
		})
		cache := NewSimCache()
		dev, err := New(WithArch(sm.ArchSBISWI), WithWorkers(4),
			WithSimCache(cache), WithFaultPlan(plan), WithReplayLog(&bytes.Buffer{}))
		if err != nil {
			t.Fatal(err)
		}

		for pass := 0; pass < 2; pass++ {
			results, err := dev.RunSuite(ctx, suite)
			if err != nil {
				t.Fatalf("seed %d pass %d: %v", seed, pass, err)
			}
			checkEntries(t, plan.String(), results, golden)
		}
		if err := dev.Synchronize(ctx); err != nil {
			t.Errorf("seed %d: Synchronize after storm: %v", seed, err)
		}

		// Disarm and re-run on the same device and cache: everything
		// must come back clean and golden — a failed result that had
		// leaked into the cache would surface right here.
		plan.Disarm()
		results, err := dev.RunSuite(ctx, suite)
		if err != nil {
			t.Fatalf("seed %d post-disarm: %v", seed, err)
		}
		for _, r := range results {
			if r.Err != nil {
				t.Errorf("seed %d post-disarm: %s: %v", seed, r.Bench.Name, r.Err)
			} else if !reflect.DeepEqual(r.Result.Stats, golden[r.Bench.Name]) {
				t.Errorf("seed %d post-disarm: %s diverged from golden", seed, r.Bench.Name)
			}
		}
		if n := cache.Len(); n != len(suite) {
			t.Errorf("seed %d: cache holds %d entries post-disarm, want %d", seed, n, len(suite))
		}
	}
}

// TestChaosStreams storms the asynchronous path: launches spread over
// several streams with panics and cancellations at dispatch and
// admission. Poison must stay inside each stream and the device must
// drain and stay usable.
func TestChaosStreams(t *testing.T) {
	leakcheck.Check(t)
	suite := chaosSuite(t)
	golden := goldenStats(t, suite, WithArch(sm.ArchSBISWI), WithWorkers(4))
	ctx := context.Background()

	for _, seed := range []uint64{1, 2, 3} {
		plan := faultinject.NewPlan(seed, faultinject.Spec{
			{Site: faultinject.SiteStreamDispatch, Kind: faultinject.KindPanic, Prob: 0.25},
			{Site: faultinject.SiteStreamDispatch, Kind: faultinject.KindError, Prob: 0.15},
			{Site: faultinject.SiteQueueAcquire, Kind: faultinject.KindCancel, Prob: 0.1},
		})
		dev, err := New(WithArch(sm.ArchSBISWI), WithWorkers(4), WithFaultPlan(plan))
		if err != nil {
			t.Fatal(err)
		}

		const streams = 3
		type flight struct {
			bench *kernels.Benchmark
			p     *Pending
		}
		var flights []flight
		ss := make([]*Stream, streams)
		for i := range ss {
			ss[i] = dev.NewStream()
		}
		for round := 0; round < 2; round++ {
			for i, b := range suite {
				l, err := b.NewLaunch(true)
				if err != nil {
					t.Fatal(err)
				}
				flights = append(flights, flight{b, ss[(round*len(suite)+i)%streams].Launch(ctx, l)})
			}
		}
		for _, f := range flights {
			res, err := f.p.Wait()
			if err != nil {
				if !stormError(err) {
					t.Errorf("seed %d: %s failed outside the storm's fault classes: %v", seed, f.bench.Name, err)
				}
				continue
			}
			if !reflect.DeepEqual(res.Stats, golden[f.bench.Name]) {
				t.Errorf("seed %d: %s survived the storm but diverged from golden", seed, f.bench.Name)
			}
		}
		if err := dev.Synchronize(ctx); err != nil {
			t.Errorf("seed %d: Synchronize after storm: %v", seed, err)
		}

		// Fresh streams on the disarmed device replay the whole load
		// clean.
		plan.Disarm()
		for _, b := range suite {
			l, err := b.NewLaunch(true)
			if err != nil {
				t.Fatal(err)
			}
			res, err := dev.NewStream().Launch(ctx, l).Wait()
			if err != nil {
				t.Errorf("seed %d post-disarm: %s: %v", seed, b.Name, err)
			} else if !reflect.DeepEqual(res.Stats, golden[b.Name]) {
				t.Errorf("seed %d post-disarm: %s diverged from golden", seed, b.Name)
			}
		}
	}
}

// TestChaosMemsysAndReplay storms the hardest paths: the shared-clock
// partitioned memory system (faults raised as panics on the hot access
// path, plus the wave-merge site) and the trace-replay engine (replay
// faults degrading to full simulation). Every failure must attribute.
func TestChaosMemsysAndReplay(t *testing.T) {
	leakcheck.Check(t)
	suite := chaosSuite(t)
	base := []Option{
		WithArch(sm.ArchSBISWI), WithSMs(2), WithWorkers(4),
		WithGridPartition(true), WithL2(mem.DefaultL2()), WithInterconnect(noc.Default()),
	}
	golden := goldenStats(t, suite, base...)
	ctx := context.Background()

	for _, seed := range []uint64{1, 2, 3} {
		plan := faultinject.NewPlan(seed, faultinject.Spec{
			{Site: faultinject.SiteMemAccess, Kind: faultinject.KindError, Hits: []uint64{2000, 40000}},
			{Site: faultinject.SiteWaveMerge, Kind: faultinject.KindError, Prob: 0.2},
			{Site: faultinject.SiteReplayFallback, Kind: faultinject.KindPanic, Prob: 0.5},
		})
		cache := NewSimCache()
		opts := append(append([]Option{}, base...),
			WithSimCache(cache), WithTraceReplay(true),
			WithFaultPlan(plan), WithReplayLog(&bytes.Buffer{}))
		dev, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}

		for pass := 0; pass < 2; pass++ {
			results, err := dev.RunSuite(ctx, suite)
			if err != nil {
				t.Fatalf("seed %d pass %d: %v", seed, pass, err)
			}
			checkEntries(t, plan.String(), results, golden)
		}
		if err := dev.Synchronize(ctx); err != nil {
			t.Errorf("seed %d: Synchronize after storm: %v", seed, err)
		}

		plan.Disarm()
		results, err := dev.RunSuite(ctx, suite)
		if err != nil {
			t.Fatalf("seed %d post-disarm: %v", seed, err)
		}
		for _, r := range results {
			if r.Err != nil {
				t.Errorf("seed %d post-disarm: %s: %v", seed, r.Bench.Name, r.Err)
			} else if !reflect.DeepEqual(r.Result.Stats, golden[r.Bench.Name]) {
				t.Errorf("seed %d post-disarm: %s diverged from golden", seed, r.Bench.Name)
			}
		}
	}
}

// TestChaosWatchdog storms the watchdog: injected admission delays
// push some launches past a tight wall-clock bound. Timed-out launches
// must report sm.ErrLaunchTimeout (with poison wrapping it for FIFO
// successors); survivors must be bit-identical to golden; the disarmed
// device runs clean.
func TestChaosWatchdog(t *testing.T) {
	leakcheck.Check(t)
	suite := chaosSuite(t)
	golden := goldenStats(t, suite, WithArch(sm.ArchSBISWI), WithWorkers(4))
	ctx := context.Background()

	for _, seed := range []uint64{1, 2} {
		// The margin between the watchdog bound and the injected delay
		// is deliberately wide: under -race a clean benchmark runs tens
		// of times slower, and it must still finish inside the bound.
		plan := faultinject.NewPlan(seed, faultinject.Spec{
			{Site: faultinject.SiteQueueAcquire, Kind: faultinject.KindDelay, Prob: 0.5, Delay: 3 * time.Second},
		})
		dev, err := New(WithArch(sm.ArchSBISWI), WithWorkers(4),
			WithLaunchTimeout(time.Second), WithFaultPlan(plan))
		if err != nil {
			t.Fatal(err)
		}

		var pendings []*Pending
		for _, b := range suite {
			l, err := b.NewLaunch(true)
			if err != nil {
				t.Fatal(err)
			}
			pendings = append(pendings, dev.NewStream().Launch(ctx, l))
		}
		for i, p := range pendings {
			res, err := p.Wait()
			if err != nil {
				if !errors.Is(err, sm.ErrLaunchTimeout) {
					t.Errorf("seed %d: %s: err %v, want a watchdog timeout", seed, suite[i].Name, err)
				}
				continue
			}
			if !reflect.DeepEqual(res.Stats, golden[suite[i].Name]) {
				t.Errorf("seed %d: %s survived but diverged from golden", seed, suite[i].Name)
			}
		}
		if err := dev.Synchronize(ctx); err != nil {
			t.Errorf("seed %d: Synchronize after storm: %v", seed, err)
		}

		plan.Disarm()
		for _, b := range suite {
			l, err := b.NewLaunch(true)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dev.NewStream().Launch(ctx, l).Wait(); err != nil {
				t.Errorf("seed %d post-disarm: %s: %v", seed, b.Name, err)
			}
		}
	}
}
