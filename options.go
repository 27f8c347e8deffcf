package sbwi

import (
	"io"
	"time"

	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/noc"
)

// L2Config sets the shared L2's geometry and timing (capacity,
// associativity, banks, bank latency and bandwidth).
type L2Config = mem.L2Config

// NoCConfig sets the SM↔L2 crossbar timing (per-port bandwidth and
// traversal latency).
type NoCConfig = noc.Config

// NoCStats holds interconnect counters: the merged totals in
// Stats.Mem.NoC, and the per-SM port breakdown in Result.NoCPorts.
type NoCStats = noc.Stats

// DefaultL2Config returns the Fermi-class shared L2 WithL2 models when
// not overridden: 768 KB, 8-way, 8 banks.
func DefaultL2Config() L2Config { return mem.DefaultL2() }

// DefaultNoCConfig returns the crossbar WithInterconnect models when
// not overridden: 20-cycle traversal, 32 B/cycle per SM port.
func DefaultNoCConfig() NoCConfig { return noc.Default() }

// Option configures a Device built by NewDevice. Options apply in
// order; later options override earlier ones. A Config field is set
// through WithConfig, starting from the Device.Config of a device built
// WithArch.
type Option = device.Option

// WithArch selects the modeled micro-architecture: the device's
// configuration becomes that architecture's paper table-2 parameters.
// Default: SBISWI. WithArch and WithConfig each replace the whole
// configuration, so the last of them in the option list wins.
func WithArch(a Arch) Option { return device.WithArch(a) }

// WithConfig bases the device on a fully spelled-out configuration
// instead of an architecture's defaults — the escape hatch for callers
// that already hold a tuned Config.
func WithConfig(cfg Config) Option { return device.WithConfig(cfg) }

// WithSMs sets the number of streaming multiprocessors the device
// models, 1 to 1024 (default 1). With grid partitioning enabled, a
// launch's CTA waves are packed onto the SMs round-robin and
// Result.DeviceCycles reports the busiest SM's total; under the flat
// memory model statistics are bit-identical for every SM count by
// construction. The SM count is modeled hardware, not host parallelism.
func WithSMs(n int) Option { return device.WithSMs(n) }

// WithWorkers sets the slot count of the device's private run queue:
// the bound on host goroutines simulating concurrently across
// everything the device runs — stream launches and RunSuite entries
// alike, one launch per goroutine, at most 65536 (default: GOMAXPROCS). The worker count
// never changes results, only wall-clock. Ignored when WithRunQueue
// shares a queue: that queue's slot count is the bound then.
func WithWorkers(n int) Option { return device.WithWorkers(n) }

// WithRunQueue makes the device take its simulation slots from a
// shared RunQueue instead of a private one, bounding several devices'
// combined load — streams and suites alike — by one worker pool (the
// queue bounds concurrency; RunSuite orders by cost). A nil queue keeps
// the default private queue.
func WithRunQueue(q *RunQueue) Option { return device.WithRunQueue(q) }

// WithStreamQueueDepth bounds how many enqueued-but-incomplete
// launches each Stream of the device may hold: Stream.Launch blocks
// once its stream is n launches deep, giving producers backpressure
// instead of an unbounded launch queue. 0 (the default) means
// unbounded.
func WithStreamQueueDepth(n int) Option { return device.WithStreamQueueDepth(n) }

// WithGridPartition selects the partitioned timing model: the grid is
// split into SM-sized CTA waves, each simulated on a cold SM from a copy
// of global memory, packed onto the device's SMs, and merged back under
// the write-sharing contract (CTAs may only write the same global
// location with the same value). It models waves on cold SMs; it is not
// host parallelism — a launch's waves run one after another. Off by
// default, which keeps Device.Run cycle-exact with the classic
// single-SM Run path.
func WithGridPartition(on bool) Option { return device.WithGridPartition(on) }

// WithAutoPartition lets Device.RunSuite route heavy suite entries
// through the partitioned timing model on its own: entries whose static
// cost estimate exceeds the batch mean and whose grids span several
// CTA waves are simulated as waves on cold SMs, as under
// WithGridPartition. It is a timing-model switch only: an entry's waves
// still run one after another on one host worker. The decision is a
// pure function of the batch — results stay bit-identical for every
// worker and SM count — but auto-partitioned entries carry the
// partitioned timing model's numbers (each wave starts on a cold SM). Off by default, which keeps
// RunSuite statistics cycle-exact with the seed path.
func WithAutoPartition(on bool) Option { return device.WithAutoPartition(on) }

// WithSimCache attaches a simulation cache: RunSuite entries are
// memoized by (benchmark, full configuration fingerprint,
// partitioning, memory system, SM count) and shared across passes and
// across every device built with the same cache. Results served from
// the cache were oracle-validated when first computed and must be
// treated as read-only. See NewSimCache.
func WithSimCache(c *SimCache) Option { return device.WithSimCache(c) }

// WithTraceReplay routes RunSuite entries through the record-once /
// replay-per-point engine: the first configuration to run a benchmark
// records its compact per-thread execution trace (one bit per
// conditional branch, one address per global memory operation), and
// every later timing configuration replays the trace through the full
// scheduling/timing machinery instead of re-simulating the functional
// layer — bit-identical statistics at a fraction of the cost.
// Benchmarks whose record-time race analysis finds timing-dependent
// functional behavior fall back to full simulation with the reason
// logged (WithReplayLog); Result.Replayed reports which path produced
// a result. Off by default. Implies a private SimCache when none is
// shared.
func WithTraceReplay(on bool) Option { return device.WithTraceReplay(on) }

// WithReplayLog directs the trace-replay fallback diagnostics to w
// (default: os.Stderr). A nil w keeps the default.
func WithReplayLog(w io.Writer) Option { return device.WithReplayLog(w) }

// WithLaunchTimeout bounds each launch's host wall-clock time —
// queueing, admission and simulation together. A launch exceeding d
// completes with a *TimeoutError (errors.Is(err, ErrLaunchTimeout))
// carrying a partial-state snapshot of the stuck SM, instead of
// hanging its Pending and every Synchronize behind it. 0 (the
// default) disables the watchdog. The watchdog never changes what a
// surviving simulation computes — wall-clock time can only abort a
// run, never retime it.
func WithLaunchTimeout(d time.Duration) Option { return device.WithLaunchTimeout(d) }

// WithL2 models the shared memory system: a banked, MSHR-backed L2
// between every SM's L1 and global memory, reached over the
// interconnect (DefaultNoCConfig unless WithInterconnect overrides
// it). Off by default — the seed's flat-latency DRAM model — so
// default runs stay cycle-exact with the paper reproduction. With it
// on, every run times L1 misses and write-through stores through NoC
// port, L2 bank and the shared DRAM port inline — partitioned runs
// interleave all waves against one shared memory-system clock —
// surfacing L2/NoC counters in Stats.Mem and folding cross-SM
// contention into issue timing and DeviceCycles.
func WithL2(cfg L2Config) Option { return device.WithL2(cfg) }

// WithInterconnect sets the SM↔L2 crossbar parameters and enables the
// modeled memory hierarchy (with DefaultL2Config unless WithL2
// overrides the cache itself). Narrower port bandwidth means more
// queueing and a longer modeled device wall-clock.
func WithInterconnect(cfg NoCConfig) Option { return device.WithInterconnect(cfg) }
