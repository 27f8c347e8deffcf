// Package device implements the device-level simulation engine: a GPU
// of N independent streaming multiprocessors fed from one CTA queue,
// an asynchronous stream/event launch API, and a batch runner that
// executes whole benchmark suites concurrently on a bounded worker
// pool.
//
// # Admission and ordering
//
// Two mechanisms, one job each. The RunQueue (queue.go) bounds
// concurrency: a counting semaphore of worker slots, and every
// contention domain of every launch — the whole launch, or each CTA
// wave of a flat-partitioned grid — holds one slot while its SMs
// simulate. Device.Run, stream launches (stream.go) and RunSuite entries
// all reach it through the wave engine, so interactive streams and batch
// suites share one host-parallelism bound; slots are granted first-come.
// RunSuite orders by cost: it is the only place that ranks work, claiming
// its entries longest-job-first (below), so the heaviest entries are the
// first to ask for a slot. Run itself is sugar for a one-launch stream:
//
//	func (d *Device) Run(ctx, l) { return d.NewStream().Launch(ctx, l).Wait() }
//
// Neither mechanism decides what a simulation computes — only when it
// starts — so every result stays bit-identical to a serial run.
//
// # Execution model
//
// One engine simulates every launch (memsys.go): the launch becomes a
// plan of CTA waves, the waves are grouped into contention domains — the
// SM slots sharing one lower memory level — and one driver steps each
// domain's SMs in device-time order. By default the plan is a single
// wave: the launch runs whole on one SM over its live memory image,
// cycle-exact with the classic sm.Run path — Stats are bit-identical to
// it for every kernel, whatever the SM or worker count, which keeps the
// paper reproduction stable while RunSuite fans independent launches out
// across the worker pool.
//
// With WithGridPartition the grid is instead split into waves of
// contiguous CTAs, each sized to fill one SM's warp contexts
// (sm.ResidentCTAs); wave j runs on SM j mod N. Every wave is simulated
// on a cold SM over a copy of the pre-launch global image; the per-wave
// images are folded together with exec.MergeWave, which asserts the
// write-sharing contract (different CTAs may only write the same
// location with the same value), the result is committed to the
// launch's image once every wave has succeeded, and the per-wave
// statistics are merged in wave order with Stats.Merge.
// Relative to the unpartitioned shape this trades the cross-wave
// pipelining of one big SM run for wave-level parallel scaling (each
// wave starts on a cold SM), leaving functional results untouched.
// Result.SMCycles/DeviceCycles report how the waves pack onto the
// configured SMs.
//
// # Batch scheduling and memoization
//
// RunSuite claims its entries longest-job-first, weighting each by its
// calibrated static estimate (see calibration.go) — keeping a batch's
// wall-clock near max(heaviest entry, total/workers) instead of
// tail-bound by whichever heavy kernel a naive schedule dispatched
// last. Each claimed entry then takes a
// run-queue slot like any other launch, so the batch shares the pool
// with concurrent streams and with other batches on a shared queue. With
// WithAutoPartition the heavy tail itself is decomposed: entries whose
// static cost exceeds the batch mean and whose grids span several CTA
// waves run in the wave-partitioned shape, so even a single dominant
// kernel spreads across the pool. With WithSimCache, oracle-validated
// entries are memoized by (benchmark, configuration fingerprint,
// partitioning, memory system, SM count) and shared across passes and
// devices. All three mechanisms are result-neutral by construction:
// dispatch order and worker count never influence statistics, the
// cache key is sound (sm.Config.Fingerprint digests every
// configuration field), and the claim order and the partition plan are
// pure functions of the batch.
//
// # Shared memory system
//
// WithL2 / WithInterconnect replace the seed's flat-latency DRAM model
// with a modeled hierarchy: every SM's L1 misses and write-through
// stores cross a crossbar port (package noc) into a banked,
// MSHR-backed shared L2 (mem.L2) in front of the single DRAM port —
// inline, at the cycle each transaction leaves its L1. Under the flat
// model nothing is shared below the L1s, so the waves of a partitioned
// launch are independent domains simulated in parallel and their Stats
// never depend on the SM count; with the hierarchy modeled all SMs form
// one domain contending on one device clock, and contention-aware
// results — Stats.Mem.L2, Stats.Mem.NoC, per-wave Stats, SMCycles and
// DeviceCycles — depend on the SM count, an architectural parameter
// deciding how many waves share the hierarchy at once. Either way every
// result is bit-identical across host worker counts and repeat runs
// (memsys.go gives the argument). Both options are off by default,
// keeping every default-path number seed-exact.
package device

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/kernels"
	"repro/internal/locked"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sm"
)

// Device is an N-SM simulation engine. It is immutable after New and
// safe for concurrent use: every Run simulates on SM instances — and,
// when the shared memory system is modeled, an L2 and crossbar — that
// it holds alone: a spare from the process-wide store, re-armed so that
// results are bit-identical to newly built ones', and never the
// leftovers of a failed launch (queue.go). The only shared state is the
// run queue, the spare store and the optional simulation cache, all
// concurrency-safe.
type Device struct {
	cfg       sm.Config
	sms       int
	partition bool
	autoPart  bool

	// queue bounds the simulations the device runs at once (queue.go);
	// it is private unless WithRunQueue shared one across devices.
	queue *RunQueue

	// streamDepth, when positive, bounds each stream's
	// enqueued-but-incomplete launches (WithStreamQueueDepth).
	streamDepth int

	// inflight tracks outstanding asynchronous operations for
	// Synchronize.
	inflight inflight

	// cache, when non-nil, memoizes oracle-validated RunSuite entries
	// across passes and devices (WithSimCache).
	cache *SimCache

	// traceReplay routes suite entries through the record-once /
	// replay-per-point engine (WithTraceReplay); diag receives every
	// degradation diagnostic (replay fallbacks), serialized by its lock
	// (see Device.degradef).
	traceReplay bool
	diag        locked.Value[io.Writer]

	// faults and launchTimeout are the hardened failure plane: the armed
	// fault-injection plan (nil in production) and the wall-clock
	// watchdog bound (guard.go).
	faults        *faultinject.Plan
	launchTimeout time.Duration

	// cfgFP / memsysFP are the precomputed cache-key digests of the SM
	// configuration and the modeled memory system; funcFP is the
	// functional half of cfgFP — the trace-cache key (see
	// sm.Config.FunctionalFingerprint).
	cfgFP    uint64
	memsysFP uint64
	funcFP   uint64

	// memsys enables the modeled L1→NoC→L2→DRAM hierarchy; l2cfg and
	// noccfg are its validated parameters.
	memsys bool
	l2cfg  mem.L2Config
	noccfg noc.Config
}

// Option configures a Device. Options are applied in order; later
// options override earlier ones.
type Option func(*settings)

// settings is what New threads through the options: the Device under
// construction — option bodies write its fields directly through the
// embedding — plus the inputs only the builder reads.
type settings struct {
	Device
	workers   int
	l2        *mem.L2Config
	noc       *noc.Config
	replayLog io.Writer // becomes diag in New
}

// WithArch selects the modeled micro-architecture (default SBI+SWI):
// the configuration becomes its paper table-2 parameters.
func WithArch(a sm.Arch) Option {
	return func(s *settings) { s.cfg = sm.Configure(a) }
}

// WithConfig replaces the whole configuration, for callers that already
// hold a tuned sm.Config (start from the Config of a WithArch device).
func WithConfig(cfg sm.Config) Option {
	return func(s *settings) { s.cfg = cfg }
}

// The largest SM count (WithSMs) and worker count (WithWorkers,
// NewRunQueue) a device accepts: each SM is an sm.Runner shell and each
// worker a run-queue slot, so a count past these bounds would allocate
// shells and slots for hardware no study models.
const (
	MaxSMs     = 1024
	MaxWorkers = 65536
)

// WithSMs sets the number of streaming multiprocessors, 1 to MaxSMs
// (default 1).
// More SMs shorten the modeled device wall-clock (Result.DeviceCycles)
// and widen host-side parallelism. Under the default flat-latency
// memory model the SM count never changes merged statistics; with the
// modeled shared memory system (WithL2/WithInterconnect) it decides how
// many waves contend for the hierarchy at once, so contention counters
// and timing legitimately shift with it.
func WithSMs(n int) Option {
	return func(s *settings) { s.sms = n }
}

// WithWorkers sets the slot count of the device's private run queue:
// the bound on host goroutines simulating concurrently across everything
// the device runs (stream launches, waves and suite entries alike), at
// most MaxWorkers. Default (n <= 0): GOMAXPROCS. Worker count never
// changes results. Ignored when WithRunQueue shares a queue — that
// queue's slot count is the bound.
func WithWorkers(n int) Option {
	return func(s *settings) { s.workers = n }
}

// WithRunQueue makes the device take its simulation slots from a shared
// queue instead of a private one, so several devices' combined load —
// streams and suites alike — stays bounded by one worker pool (the
// queue bounds concurrency; each device's RunSuite still orders its own
// batch by cost). The experiments runner shares one queue across every
// device it builds. A nil queue keeps the default private queue.
func WithRunQueue(q *RunQueue) Option {
	return func(s *settings) { s.queue = q }
}

// WithStreamQueueDepth bounds how many enqueued-but-incomplete
// launches each stream of the device may hold: Stream.Launch blocks
// once its stream is n launches deep, giving producers backpressure
// instead of an unbounded queue. 0 (the default) means unbounded;
// negative is rejected by New.
func WithStreamQueueDepth(n int) Option {
	return func(s *settings) { s.streamDepth = n }
}

// WithGridPartition enables intra-launch parallelism: the grid is split
// into SM-sized CTA waves dispatched across the device's SMs (see the
// package comment for the exact semantics and the write-sharing
// contract it relies on). Off by default, which keeps Run cycle-exact
// with the classic single-SM path.
func WithGridPartition(on bool) Option {
	return func(s *settings) { s.partition = on }
}

// WithAutoPartition lets RunSuite route individual heavy entries
// through the wave-partitioned shape on its own: an entry whose
// static cost estimate exceeds the batch mean and whose grid
// decomposes into at least two CTA waves is simulated as parallel
// waves (exactly as under WithGridPartition), while light entries keep
// the whole-grid shape. The decision is a pure function of the batch —
// never of the worker count, the SM count or measured timings — so
// RunSuite results remain bit-identical across every parallelism
// setting and across passes. Off by default: the default suite path
// stays cycle-exact with the seed (the golden fixture pins it), and
// auto-partitioned entries carry the partitioned timing model's
// numbers (each wave starts on a cold SM). Device.Run is unaffected.
func WithAutoPartition(on bool) Option {
	return func(s *settings) { s.autoPart = on }
}

// WithSimCache attaches a simulation cache to the device: RunSuite
// entries are memoized by (benchmark, configuration fingerprint,
// partitioning, memory system, SM count) and served without
// re-simulating on later passes — by this device or any other device
// sharing the cache. Cached results were oracle-validated when first
// computed; callers must treat results served from the cache as
// read-only. A nil cache disables memoization (the default).
func WithSimCache(c *SimCache) Option {
	return func(s *settings) { s.cache = c }
}

// WithL2 puts a shared, banked L2 (and the interconnect reaching it —
// noc.Default unless WithInterconnect overrides) between every SM's L1
// and global memory. Off by default, which keeps the flat-latency DRAM
// model and the seed-exact numbers; see the package comment for how
// the modeled hierarchy affects partitioned and unpartitioned runs.
func WithL2(cfg mem.L2Config) Option {
	return func(s *settings) { c := cfg; s.l2 = &c }
}

// WithInterconnect sets the SM↔L2 crossbar parameters and enables the
// modeled memory hierarchy (with mem.DefaultL2 unless WithL2 overrides
// the cache itself). Narrower port bandwidth means more queueing and a
// longer modeled device wall-clock.
func WithInterconnect(cfg noc.Config) Option {
	return func(s *settings) { c := cfg; s.noc = &c }
}

// New builds a Device. The zero option set models one SBI+SWI SM with
// the paper's table-2 parameters.
func New(opts ...Option) (*Device, error) {
	st := &settings{Device: Device{cfg: sm.Configure(sm.ArchSBISWI), sms: 1}}
	for _, o := range opts {
		o(st)
	}
	d := &st.Device
	if err := d.cfg.Validate(); err != nil {
		return nil, fmt.Errorf("device: %w", err)
	}
	if d.sms <= 0 || d.sms > MaxSMs {
		return nil, fmt.Errorf("device: SM count %d outside [1, %d]", d.sms, MaxSMs)
	}
	if st.workers > MaxWorkers {
		return nil, fmt.Errorf("device: worker count %d above %d", st.workers, MaxWorkers)
	}
	if d.streamDepth < 0 {
		return nil, fmt.Errorf("device: stream queue depth %d must be non-negative (0 = unbounded)", d.streamDepth)
	}
	if d.launchTimeout < 0 {
		return nil, fmt.Errorf("device: launch timeout %v must be non-negative (0 = no watchdog)", d.launchTimeout)
	}
	if d.queue == nil {
		d.queue = NewRunQueue(st.workers)
	}
	if st.l2 != nil || st.noc != nil {
		d.memsys = true
		d.l2cfg = mem.DefaultL2()
		if st.l2 != nil {
			d.l2cfg = *st.l2
		}
		d.noccfg = noc.Default()
		if st.noc != nil {
			d.noccfg = *st.noc
		}
		if err := d.l2cfg.Validate(d.cfg.Mem.BlockBytes); err != nil {
			return nil, fmt.Errorf("device: %w", err)
		}
		if err := d.noccfg.Validate(d.cfg.Mem.BlockBytes); err != nil {
			return nil, fmt.Errorf("device: %w", err)
		}
	}
	if st.replayLog == nil {
		st.replayLog = os.Stderr
	}
	d.diag.Do(func(w *io.Writer) { *w = st.replayLog })
	if d.traceReplay && d.cache == nil {
		// Trace replay only pays off when traces outlive one entry; give
		// the device a private cache when the caller didn't share one.
		d.cache = NewSimCache()
	}
	d.cfgFP = d.cfg.Fingerprint()
	d.memsysFP = d.memsysFingerprint()
	d.funcFP = d.cfg.FunctionalFingerprint()
	return d, nil
}

// Config returns a copy of the device's SM configuration.
func (d *Device) Config() sm.Config { return d.cfg }

// SMs returns the configured SM count.
func (d *Device) SMs() int { return d.sms }

// Workers returns the host worker-pool bound: the device's run-queue
// slot count.
func (d *Device) Workers() int { return d.queue.Workers() }

// Run simulates the launch to completion on the device and returns the
// result (merged across CTA waves when grid partitioning is enabled).
// It is sugar for a one-launch stream — enqueue, then wait — so
// concurrent Run calls share the run queue's slots with streams and
// suites. Global memory is mutated in
// place, exactly like sm.Run. The context cancels the simulation
// promptly (the wave engine polls it about every 1k steps); a cancelled
// or failed partitioned run leaves the launch's memory image unchanged,
// while the unpartitioned shape may have partially mutated it just as
// sm.Run would.
func (d *Device) Run(ctx context.Context, l *exec.Launch) (*sm.Result, error) {
	return d.NewStream().Launch(ctx, l).Wait()
}

// SuiteResult is the outcome of one benchmark within a RunSuite batch.
type SuiteResult struct {
	Bench  *kernels.Benchmark
	Result *sm.Result
	Err    error

	// Cached reports that Result was not simulated for this entry: the
	// simulation cache (WithSimCache) served it from a completed cell or
	// from another caller's fill that was in flight. Read-only.
	Cached bool
}

// Name returns the benchmark name.
func (r *SuiteResult) Name() string { return r.Bench.Name }

// RunSuite simulates every benchmark on the device concurrently and
// validates each final memory image against the benchmark's Go
// reference oracle — an oracle mismatch is reported in that entry's
// Err, never a silent wrong number. Results are returned in input
// order regardless of completion order, and are bit-identical for
// every worker and SM count. The returned error is non-nil only for
// whole-batch failures (context cancellation); per-benchmark failures
// live in the entries.
//
// Dispatch is cost-aware longest-job-first: entries are claimed by the
// batch's puller goroutines in descending order of their calibrated
// static cost (the sort is stable, so the claim order is a pure
// function of the batch), and every entry then
// takes a run-queue slot for its simulation, so suite batches share the
// worker pool with any streams running on the device. Dispatch order
// can never change results — only which worker simulates what, when.
//
// With WithAutoPartition, heavy entries additionally run as parallel
// CTA waves (see the option's comment); with WithSimCache, entries are
// memoized across passes and devices.
func (d *Device) RunSuite(ctx context.Context, suite []*kernels.Benchmark) ([]*SuiteResult, error) {
	results := make([]*SuiteResult, len(suite))
	for i, b := range suite {
		results[i] = &SuiteResult{Bench: b}
	}
	partitioned := d.partitionPlan(suite)

	// Longest-job-first claim order: descending static cost, input
	// order on ties. The run queue grants its slots first-come, so the
	// heaviest entries must be the first to ask.
	order := make([]int, len(suite))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return staticCost(suite[order[a]]) > staticCost(suite[order[b]])
	})

	// One inflight token covers the batch, so a concurrent Synchronize
	// drains it like any stream work.
	d.inflight.add()
	defer d.inflight.finish()

	workers := d.queue.Workers()
	if workers > len(suite) {
		workers = len(suite)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var workerPanic atomic.Pointer[PanicError]
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go guarded("suite worker", func() {
			defer wg.Done()
			// A panic escaping an entry's safeRun means the claim loop
			// itself broke; record it before wg.Done (defers are LIFO) so
			// the post-Wait sweep below sees it.
			defer func() {
				if v := recover(); v != nil {
					workerPanic.CompareAndSwap(nil, newPanicError("suite worker", v))
				}
			}()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(order) {
					return
				}
				r := results[order[n]]
				if err := ctx.Err(); err != nil {
					r.Err = err
					continue
				}
				// safeRun fails only the panicking entry; this worker keeps
				// claiming the rest of the batch.
				r.Result, r.Err = safeRun("suite entry "+r.Bench.Name, func() (*sm.Result, error) {
					return d.suiteEntry(ctx, r, partitioned[order[n]])
				})
			}
		})()
	}
	wg.Wait()
	if pe := workerPanic.Load(); pe != nil {
		// A dead worker abandons its unclaimed entries; a nil/nil entry
		// would read as a silent success, so fail them explicitly.
		for _, r := range results {
			if r.Result == nil && r.Err == nil {
				r.Err = fmt.Errorf("device: suite entry %s not run: %w", r.Bench.Name, pe)
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, nil
}

// partitionPlan decides, per suite entry, whether it runs through the
// wave-partitioned shape. With WithGridPartition everything does;
// with WithAutoPartition exactly the heavy tail does: entries whose
// static cost estimate exceeds the batch mean and whose grid spans at
// least two CTA waves. The plan reads only static batch properties —
// never worker or SM counts, never measured timings — so identical
// batches partition identically on every host, pass and parallelism
// setting.
func (d *Device) partitionPlan(suite []*kernels.Benchmark) []bool {
	plan := make([]bool, len(suite))
	if d.partition {
		for i := range plan {
			plan[i] = true
		}
		return plan
	}
	if !d.autoPart || len(suite) == 0 {
		return plan
	}
	var total int64
	for _, b := range suite {
		total += staticCost(b)
	}
	mean := total / int64(len(suite))
	for i, b := range suite {
		if staticCost(b) <= mean {
			continue
		}
		wave := sm.ResidentCTAs(d.cfg, &exec.Launch{BlockDim: b.Block})
		plan[i] = wave > 0 && b.Grid > wave
	}
	return plan
}

// suiteEntry runs one suite entry: its fault sites, the cache (when
// attached) and the simulation itself. With trace replay enabled the
// fill goes through the record-once / replay-per-point engine
// (replay.go); the result cache in front of it still keys on the full
// configuration, so each sweep point simulates (or replays) at most
// once. It marks the entry Cached when the cache answered without this
// call's fill running.
func (d *Device) suiteEntry(ctx context.Context, r *SuiteResult, partition bool) (*sm.Result, error) {
	if err := d.fire(faultinject.SiteSuiteWorker); err != nil {
		return nil, err
	}
	if d.cache == nil {
		return d.runBenchmark(ctx, r.Bench, partition, nil, nil)
	}
	filled := false
	res, err := d.cache.results.do(ctx, d.simKeyFor(r.Bench, partition), func() (*sm.Result, error) {
		filled = true
		if err := d.fire(faultinject.SiteCacheFill); err != nil {
			return nil, err
		}
		if d.traceReplay {
			return d.runBenchmarkTraced(ctx, r.Bench, partition)
		}
		return d.runBenchmark(ctx, r.Bench, partition, nil, nil)
	})
	r.Cached = err == nil && !filled
	return res, err
}

// isCtxErr reports whether err is a context cancellation or deadline.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
