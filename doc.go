// Package sbwi is a from-scratch reproduction of "Simultaneous Branch
// and Warp Interweaving for Sustained GPU Performance" (Brunie,
// Collange, Diamos; ISCA 2012).
//
// The paper proposes two micro-architectural techniques that reclaim
// SIMD lanes lost to branch divergence on a Fermi-class GPU streaming
// multiprocessor:
//
//   - SBI (Simultaneous Branch Interweaving) co-issues instructions
//     from two divergent warp-splits of the same warp to disjoint
//     subsets of one 64-lane row, on top of thread-frontier (min-PC)
//     reconvergence with selective synchronization barriers and a
//     dependency-matrix scoreboard.
//   - SWI (Simultaneous Warp Interweaving) adds a cascaded secondary
//     scheduler that fills the lanes the primary instruction leaves
//     idle with a non-overlapping instruction from another warp, found
//     through a set-associative mask-subset lookup and helped by static
//     lane shuffling.
//
// This module implements the complete stack needed to evaluate both
// techniques: a SIMT mini-ISA with an assembler, control-flow analysis
// that places reconvergence annotations and thread-frontier SYNC
// barriers, a functional reference simulator, a cycle-level SM pipeline
// model with five architectures (Baseline, SBI, SWI, SBI+SWI, and the
// 64-wide thread-frontier reference), the paper's 21-kernel benchmark
// suite with bit-exact Go oracles (plus one synthetic store-saturation
// microbenchmark), and an experiment harness that regenerates every
// table and figure of the evaluation.
//
// # Quick start
//
// Simulation runs through a Device: an engine configured once with
// functional options, then used for any number of concurrent,
// cancellable runs.
//
//	prog, _ := sbwi.Assemble("scale", `
//		mov  r1, %tid
//		shl  r2, r1, 2
//		mov  r3, %p0
//		iadd r3, r3, r2
//		ld.g r4, [r3]
//		imul r4, r4, 3
//		st.g [r3], r4
//		exit
//	`)
//	tf, _ := sbwi.ThreadFrontier(prog) // SYNC-instrumented variant
//	dev, _ := sbwi.NewDevice(sbwi.WithArch(sbwi.SBISWI))
//	launch := sbwi.NewLaunch(tf, 4, 256, make([]byte, 4096))
//	res, _ := dev.Run(context.Background(), launch)
//	fmt.Printf("IPC %.2f\n", res.Stats.IPC())
//
// # Scaling out
//
// The device's execution model separates three independent axes:
//
//   - WithSMs(n) sets the modeled hardware width. Together with
//     WithGridPartition(true) it dispatches a launch's CTA waves across
//     n independent SM instances; Result.DeviceCycles reports the
//     modeled wall-clock under that packing.
//   - WithWorkers(n) bounds host parallelism — how many SM simulations
//     run concurrently on the host, across CTA waves and batch entries
//     alike.
//   - Device.RunSuite runs a whole benchmark batch through the worker
//     pool and validates every result against the benchmark's Go
//     oracle; the experiment harness (NewExperiments) is built on it,
//     so regenerating the paper's figures fans out across cores.
//
// Results are deterministic by construction: merged statistics are
// bit-identical for every SM and worker count under the default flat
// memory model (with the modeled hierarchy they stay worker-count- and
// repeat-run-stable but depend on the SM count; see Memory hierarchy),
// and grid partitioning asserts the launch write-sharing contract
// (CTAs may only write the same global location with the same value)
// instead of letting scheduling order pick a winner.
//
// # Streams: asynchronous launches
//
// Device.Run is synchronous. To pipeline independent work on one
// device, open streams — FIFO lanes in the CUDA mold:
//
//	s1, s2 := dev.NewStream(), dev.NewStream()
//	p1 := s1.Launch(ctx, a)      // enqueues, returns immediately
//	p2 := s1.Launch(ctx, b)      // runs after a (same stream = FIFO)
//	p3 := s2.Launch(ctx, c)      // runs concurrently with stream s1
//	ev := s1.Record()            // marks s1's position after a, b
//	s2.WaitEvent(ev)             // s2's later entries wait for it
//	res, err := p2.Wait()        // Pending: future with Wait / Done
//	err = dev.Synchronize(ctx)   // drain everything in flight
//
// The execution model:
//
//   - Launches within one stream execute in enqueue order; launches on
//     different streams run concurrently, each taking a slot of the
//     device-global run queue. The queue bounds concurrency — one
//     worker pool (WithWorkers) shared by streams, Run calls and
//     RunSuite batches; RunSuite orders by cost. A RunQueue can be
//     shared across devices (NewRunQueue + WithRunQueue) to bound
//     their combined load; WithStreamQueueDepth bounds each stream's
//     launch queue for producer backpressure.
//   - Determinism: streams never change what a simulation computes.
//     Every launch's Stats are bit-identical to the synchronous
//     Device.Run path for any interleaving, stream count or worker
//     count (asserted under -race by the interleaving-determinism
//     test). Launches sharing a global memory image must be ordered by
//     one stream or by events, exactly as concurrent Run calls would.
//   - Failure: a failed or cancelled operation completes its Pending
//     with the error (a cancelled launch returns the context's error)
//     and poisons the stream — later FIFO entries fail fast with a
//     wrapping error, errors.Is still sees context.Canceled through
//     the wrap, and other streams are unaffected. Poison is sticky:
//     discard the stream and open a new one.
//
// Migration note: Device.Run is now literally sugar for a one-launch
// stream (NewStream().Launch(ctx, l).Wait()), so existing synchronous
// code keeps its exact numbers and its concurrency semantics —
// concurrent Run calls share the run queue's slots with streams.
//
// # Batch scheduling and memoization
//
// RunSuite is cost-aware: entries are claimed longest-job-first,
// weighted by measured modeled cycles once a cell has run in the
// process (before that, a static estimate calibrated per suite
// benchmark — measured cycles-per-thread × thread count — so even a
// cold batch orders by realistic relative cost), so a batch's
// wall-clock is not bound by whichever heavy kernel a naive schedule
// starts last. The run queue only bounds concurrency: each claimed
// entry takes a slot like any stream launch. Two options extend it:
//
//   - WithAutoPartition(true) routes the batch's heavy tail — entries
//     whose static cost exceeds the batch mean and whose grids span
//     several CTA waves — through the wave-partitioned engine, so even
//     one dominant kernel spreads across workers. The decision is a
//     pure function of the batch (never of worker/SM counts or
//     measured timings): results stay bit-identical for every
//     parallelism setting, but auto-partitioned entries carry the
//     partitioned timing model's numbers, which is why the option is
//     off by default.
//   - WithSimCache(NewSimCache()) memoizes oracle-validated entries
//     across RunSuite passes and across devices sharing the cache. The
//     key digests the benchmark, the full configuration
//     (Config.Fingerprint covers every field reflectively — a cache
//     key that cannot go stale as Config grows), the partitioning
//     mode, the modeled memory system and, where it matters, the SM
//     count. What invalidates the cache is therefore exactly "any of
//     those changed"; worker counts never do, because they never
//     change results. Concurrent passes deduplicate in-flight cells.
//     Results served from the cache are shared and must be treated as
//     read-only.
//
// The experiments runner uses both layers implicitly: every figure's
// simulations go through one shared cache, and benchmark inputs and
// oracle images are memoized per benchmark, so a full experiments pass
// derives each (kernel, configuration) cell exactly once.
//
// # Trace replay
//
// Timing sweeps re-simulate the same kernel while only parameters that
// decide *when* things happen change — never what the threads compute.
// WithTraceReplay(true) exploits that: the first configuration to run
// a benchmark records a compact per-thread execution trace during one
// full oracle-validated simulation (one bit per conditional-branch
// execution, one effective address per global memory operation), and
// every later timing configuration replays the trace — the complete
// scheduling and timing machinery runs unchanged, but branch outcomes
// and addresses come from the table, so the replay never decodes
// operands, evaluates ALU lanes, or touches the global memory image.
// Replayed statistics are bit-identical to full simulation for every
// configuration in the trace's validity domain; Result.Replayed
// reports which path produced a result.
//
// The validity domain is policed, never assumed. Traces are cached by
// (benchmark, Config.FunctionalFingerprint) — the functional/timing
// split of the reflection-exhaustive fingerprint — and a record-time
// race analysis over the logged (block, barrier-epoch) access sets
// marks kernels whose per-thread behavior is timing-dependent (BFS's
// racy relaxation updates) as non-replayable: those fall back to full
// simulation with the reason logged once (WithReplayLog), and a replay
// whose streams desync at runtime fails loudly and falls back too.
// The memory-hierarchy and exec-latency experiments route through the
// engine; Device.RunTraceReplay is the one-launch entry point behind
// `sbwi run -trace-replay`.
//
// # Memory hierarchy
//
// By default every SM sees the paper's memory model: a private 48 KB
// L1 in front of a flat-latency, bandwidth-limited DRAM port — the
// configuration the reproduced figures assume. WithL2 and
// WithInterconnect replace the flat model with a modeled multi-SM
// hierarchy,
//
//	L1 (per SM) → NoC crossbar port → shared banked L2 → DRAM,
//
// where the crossbar charges per-port queueing and traversal latency
// (NoCConfig), and the L2 is set-associative, banked and MSHR-backed
// (L2Config) in front of the single shared DRAM port. Every run times
// that path inline: L1 misses and write-through stores enter the
// hierarchy at the cycle they leave their L1 and the returned ready
// time flows straight back into warp wake-up, so contention shapes
// issue timing as it happens. Partitioned runs interleave all CTA
// waves against one shared memory-system clock on a single driving
// goroutine (wave j on SM j mod N), making Result.DeviceCycles
// contention-aware — it grows as interconnect ports narrow — and all
// results (merged statistics, the Stats.Mem.L2 / Stats.Mem.NoC
// counters, Result.NoCPorts per-SM port breakdowns) bit-identical
// across host worker counts and repeat runs. They legitimately depend
// on the SM count, which decides how many waves share the hierarchy at
// once. Stores occupy a finite L1 write buffer until the L2 drains
// them, so store-saturated streams exert the same back-pressure as
// load streams. Both options are off by default, which keeps default
// runs cycle-exact with the seed reproduction; the "memory-hierarchy"
// experiment sweeps the port bandwidth on the bandwidth-bound suite
// kernels and reports the per-SM queueing skew.
//
// # Failure semantics
//
// Every failure is typed and contained. A panic in any device
// goroutine converts to a *PanicError failing only its owning launch,
// stream or suite entry — the device and its other streams stay
// usable. A simulation exceeding Config.MaxCycles fails with a
// *LivelockError, and WithLaunchTimeout(d) adds a host wall-clock
// watchdog producing a *TimeoutError (errors.Is(err,
// ErrLaunchTimeout)); both carry a partial-state snapshot of the stuck
// SM. The simulation cache never stores failed results, WithRetry(n)
// re-runs transiently failed suite entries with exponential backoff,
// and trace-replay failures fall back to full simulation with the
// reason logged. A failed stream operation poisons the entries
// enqueued after it on that stream (wrapping the original error);
// other streams are unaffected. The hardening is exercised by the
// seeded fault-injection plane in internal/faultinject and the chaos
// suite in internal/device; see the README's "Failure semantics"
// section.
//
// # Simulation speed
//
// The SM's scheduling loop is event-driven but cycle-exact: a per-warp
// issue-candidate cache, read by the primary walk, the SWI lookup and
// the idle-span fast-forward, replaces the per-cycle rescan of every
// warp context and its scoreboard query on every probe (described once,
// in the header of internal/sm/schedfast.go), an issued instruction
// executes as one warp-wide operation over a register-major register
// file (the two execution forms are described once, in package
// internal/exec's comment), and the steady-state issue path performs no
// heap allocation. None of this changes any
// number — the modeled cycle count, every statistic and every PRNG
// tie-break are bit-identical to a naive per-cycle rescan, by
// construction (the walk probes the same candidates in the same order)
// and pinned by the golden-stats fixture. See the README's Performance
// section for how to benchmark and profile.
//
// # Static analysis
//
// The invariants above — bit-identical statistics, a zero-allocation
// issue path, complete Merge aggregation — are additionally enforced
// at vet time by the repository's own analyzer suite (internal/lint,
// run as `go run ./cmd/sbwi-lint ./...` or as a `go vet -vettool`;
// `-json` emits machine-readable findings). The suite includes a
// flow-sensitive lock-discipline analyzer, lockcheck: struct fields
// annotated //sbwi:guardedby <mutexField> may only be accessed where
// a CFG dataflow analysis proves the named mutex held, so the mutex
// regime of the concurrent device stack is checked at vet time rather
// than sampled by the -race suites. The //sbwi: comment directives
// appearing in the sources (hotpath, unordered, alloc-ok,
// wallclock-ok, nomerge, unguarded, guardedby, nolock) belong to that
// suite; each waiver carries its one-line justification inline — a
// bare waiver is itself reported. See the README's "Static analysis"
// section for the analyzer catalogue and the directive table.
//
// See the examples directory for runnable programs.
package sbwi
