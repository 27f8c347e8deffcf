package sbwi

import (
	"repro/internal/device"
)

// Device is the primary entry point of the library: an N-SM simulation
// engine configured once with functional options and then used for any
// number of concurrent, cancellable runs.
//
//	dev, err := sbwi.NewDevice(
//		sbwi.WithArch(sbwi.SBISWI),
//		sbwi.WithSMs(16),
//		sbwi.WithGridPartition(true),
//	)
//	res, err := dev.Run(ctx, launch)
//
// A Device is immutable after construction and safe for concurrent
// use. Its entry points are
//
//	Run(ctx, *Launch) (*Result, error)            — one launch, synchronous
//	RunSuite(ctx, []*Benchmark) ([]*SuiteResult, error) — a batch
//	NewStream() *Stream                           — asynchronous FIFO launches
//	Synchronize(ctx) error                        — drain everything in flight
//
// all context-aware and admitted by the device's run queue (one
// bounded worker pool shared by streams, Run calls and suite batches).
// See the package documentation for the execution model and the
// determinism guarantees.
type Device = device.Device

// Stream is a FIFO lane of asynchronous work on a Device, mirroring
// the CUDA stream model: Launch enqueues without blocking and returns
// a *Pending future; launches within one stream execute in enqueue
// order, launches on different streams run concurrently on the
// device's worker pool, and Record/WaitEvent give cross-stream
// dependencies. A failed or cancelled operation poisons the stream's
// later entries (they fail fast, wrapping the original error); other
// streams are unaffected. Streams never change simulation results —
// every launch's Stats are bit-identical to the synchronous Run path
// for any interleaving.
type Stream = device.Stream

// Pending is the future of one asynchronous stream launch: Wait blocks
// for the result, Done returns a channel closed at completion for
// select loops. Cancellation rides the context given to Launch.
type Pending = device.Pending

// Event marks a point in a stream's FIFO order (Stream.Record):
// Event.Wait blocks the host until the recorded work completed, and
// Stream.WaitEvent makes another stream wait for it before running its
// later entries.
type Event = device.Event

// RunQueue bounds concurrency: a pool of simulation slots, granted
// first-come (RunSuite orders by cost). Every device has a private one
// sized by WithWorkers; build one explicitly (NewRunQueue) and pass it
// to several devices via WithRunQueue to bound their combined load by
// a single pool.
type RunQueue = device.RunQueue

// NewRunQueue builds a run queue with the given number of
// concurrent simulation slots (<= 0 means GOMAXPROCS), for sharing
// across devices via WithRunQueue.
func NewRunQueue(workers int) *RunQueue { return device.NewRunQueue(workers) }

// SuiteResult is one benchmark's outcome within Device.RunSuite: the
// merged simulation result, or the error that stopped it (including
// oracle mismatches — RunSuite validates every final memory image
// against the benchmark's Go reference).
type SuiteResult = device.SuiteResult

// SimCache memoizes oracle-validated RunSuite simulations across
// passes and devices (attach one with WithSimCache). The cache key is
// sound — it digests the full configuration via Config.Fingerprint —
// and concurrent passes deduplicate in-flight work: the same cell is
// simulated once, everyone else waits for the result. Safe for
// concurrent use.
type SimCache = device.SimCache

// NewSimCache returns an empty simulation cache to share between
// devices via WithSimCache.
func NewSimCache() *SimCache { return device.NewSimCache() }

// NewDevice builds a simulation device. The zero option set models a
// single SBI+SWI SM with the paper's table-2 parameters; see the
// With... options for everything that can be tuned.
func NewDevice(opts ...Option) (*Device, error) { return device.New(opts...) }
