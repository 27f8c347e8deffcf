package main

import (
	"bytes"
	"fmt"
	"time"

	sbwi "repro"
	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/sm"
)

// deviceRungs measure what the device layer adds around sm.Run: per
// launch on a tiny generated kernel, where the overhead is most of the
// time, and per batch on the 22-kernel suite, where scheduling and
// caching decide the wall-clock. They are the same on every workload.
func deviceRungs(m metricSet, seed uint64, workers int) error {
	ks, err := genStormKernels(seed, 1)
	if err != nil {
		return err
	}
	tiny := func() (*exec.Launch, error) { return ks[0].launch(true) }
	if err := runnerRungs(m, tiny, sm.ArchSBISWI); err != nil {
		return err
	}
	if err := launchRungs(m, tiny, workers); err != nil {
		return err
	}
	if err := batchRungs(m, workers); err != nil {
		return err
	}
	return sweepRungs(m, seed, workers)
}

// launchRungs: one client launching the tiny kernel again and again,
// directly on the SM model, through Device.Run, and through a stream.
func launchRungs(m metricSet, tiny func() (*exec.Launch, error), workers int) error {
	const n = 1000
	config := sm.Configure(sm.ArchSBISWI)
	dev, err := sbwi.NewDevice(sbwi.WithArch(sbwi.SBISWI), sbwi.WithWorkers(workers), sbwi.WithStreamQueueDepth(stormDepth))
	if err != nil {
		return err
	}
	launches := func() ([]*exec.Launch, error) {
		ls := make([]*exec.Launch, n)
		for i := range ls {
			if ls[i], err = tiny(); err != nil {
				return nil, err
			}
		}
		return ls, nil
	}

	// Direct and through-the-device launches alternate, so that a noisy
	// interval falls on both and their difference stays clean.
	direct, through := make([]float64, n), make([]float64, n)
	ls, err := launches()
	if err != nil {
		return err
	}
	ls2, err := launches()
	if err != nil {
		return err
	}
	for i := range ls {
		t0 := time.Now()
		if _, err := sm.Run(config, ls[i]); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := dev.Run(ctx, ls2[i]); err != nil {
			return err
		}
		direct[i] = float64(t1.Sub(t0).Nanoseconds()) / 1e3
		through[i] = float64(time.Since(t1).Nanoseconds()) / 1e3
	}
	m["device.run_latency_us_p50"] = percentile(through, 0.5)
	m["device.run_latency_us_p99"] = percentile(through, 0.99)
	m["device.run_overhead_us"] = percentile(through, 0.5) - percentile(direct, 0.5)

	// Enqueue cost alone: the time Launch takes to return. Each round
	// stays within the stream's queue depth, so the producer never
	// waits for a slot.
	if ls, err = launches(); err != nil {
		return err
	}
	stream := dev.NewStream()
	var enqueue time.Duration
	for len(ls) > 0 {
		round := ls[:min(stormDepth, len(ls))]
		ls = ls[len(round):]
		pending := make([]*sbwi.Pending, len(round))
		t0 := time.Now()
		for i, l := range round {
			pending[i] = stream.Launch(ctx, l)
		}
		enqueue += time.Since(t0)
		if err := dev.Synchronize(ctx); err != nil {
			return err
		}
		for _, p := range pending {
			if _, err := p.Wait(); err != nil {
				return err
			}
		}
	}
	m["device.stream_enqueue_us"] = float64(enqueue.Nanoseconds()) / 1e3 / n
	return nil
}

// timeSuite runs set once on a fresh device and returns the seconds
// RunSuite took.
func timeSuite(set []*kernels.Benchmark, opts ...sbwi.Option) (float64, error) {
	dev, err := sbwi.NewDevice(opts...)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	rs, err := dev.RunSuite(ctx, set)
	d := time.Since(t0).Seconds()
	if err != nil {
		return 0, err
	}
	for _, r := range rs {
		if r.Err != nil {
			return 0, fmt.Errorf("%s: %w", r.Name(), r.Err)
		}
	}
	return d, nil
}

// batchRungs: the whole suite on SBI+SWI as a serial loop of sm.Run
// plus the oracle check, then as RunSuite on one worker (the
// difference is the batch machinery), on every worker (scaling), with
// auto-partitioning (the heavy tail decomposed), and from a warm cache.
func batchRungs(m metricSet, workers int) error {
	set := kernels.All()
	config := sm.Configure(sm.ArchSBISWI)
	launches := make([]*exec.Launch, len(set))
	for i, b := range set {
		var err error
		if launches[i], err = b.NewLaunch(true); err != nil {
			return err
		}
		b.Expected()
	}
	t0 := time.Now()
	for i, b := range set {
		if _, err := sm.Run(config, launches[i]); err != nil {
			return err
		}
		if !bytes.Equal(launches[i].Global, b.Expected()) {
			return fmt.Errorf("%s: sm.Run diverged from the oracle", b.Name)
		}
	}
	serial := time.Since(t0).Seconds()

	arch := sbwi.WithArch(sbwi.SBISWI)
	one, err := timeSuite(set, arch, sbwi.WithWorkers(1))
	if err != nil {
		return err
	}
	m["device.runsuite_overhead_pct"] = 100 * (one - serial) / serial
	if workers > 1 {
		// With one worker the scaling rungs are not measurable, and are
		// left at 0 rather than reported as a speed-up of 1.
		all, err := timeSuite(set, arch, sbwi.WithWorkers(workers))
		if err != nil {
			return err
		}
		auto, err := timeSuite(set, arch, sbwi.WithWorkers(workers), sbwi.WithAutoPartition(true))
		if err != nil {
			return err
		}
		m["device.suite_speedup_wN"] = one / all
		m["device.autopartition_speedup"] = all / auto
	}

	cache := sbwi.NewSimCache()
	if _, err := timeSuite(set, arch, sbwi.WithWorkers(workers), sbwi.WithSimCache(cache)); err != nil {
		return err
	}
	warm, err := timeSuite(set, arch, sbwi.WithWorkers(workers), sbwi.WithSimCache(cache))
	if err != nil {
		return err
	}
	m["device.simcache_hit_us"] = warm * 1e6 / float64(len(set))
	m["device.simcache_hits"] = float64(cache.Hits())
	m["device.simcache_misses"] = float64(cache.Misses())
	return nil
}

// sweepRungs: three points of the timing sweep, to price the memory
// system driver and the two sides of trace replay apart from any
// workload: one full simulation, one recording point, one replayed.
func sweepRungs(m metricSet, seed uint64, workers int) error {
	set, err := sweepKernels()
	if err != nil {
		return err
	}
	pts := sweepBandwidths(seed)
	var devCycles int64
	point := func(bw float64, extra ...sbwi.Option) (float64, error) {
		dev, err := sbwi.NewDevice(sweepOptions(bw, workers, extra...)...)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		rs, err := dev.RunSuite(ctx, set)
		d := time.Since(t0).Seconds()
		if err != nil {
			return 0, err
		}
		devCycles = 0
		for _, r := range rs {
			if r.Err != nil {
				return 0, fmt.Errorf("%s: %w", r.Name(), r.Err)
			}
			devCycles += r.Result.DeviceCycles()
		}
		return d, nil
	}
	full, err := point(pts[3])
	if err != nil {
		return err
	}
	m["device.memsys_ns_per_devcycle"] = full * 1e9 / float64(devCycles)

	var log bytes.Buffer
	traced := []sbwi.Option{sbwi.WithTraceReplay(true), sbwi.WithSimCache(sbwi.NewSimCache()), sbwi.WithReplayLog(&log)}
	record, err := point(pts[0], traced...)
	if err != nil {
		return err
	}
	// The replayed point is the one simulated in full above, so that the
	// speed-up compares the same point both ways.
	replayed, err := point(pts[3], traced...)
	if err != nil {
		return err
	}
	m["replay.record_point_ms"] = record * 1e3
	m["replay.replay_point_ms"] = replayed * 1e3
	m["replay.speedup_vs_fullsim"] = full / replayed
	return nil
}
