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
//     WithGridPartition(true) it packs a launch's CTA waves, each
//     simulated on a cold SM, onto n SMs; Result.DeviceCycles reports
//     the modeled wall-clock under that packing. Partitioning is a
//     timing model, not host parallelism: a launch's waves run one after
//     another.
//   - WithWorkers(n) bounds host parallelism — how many launches
//     simulate concurrently on the host, stream launches and batch
//     entries alike.
//   - Device.RunSuite runs a whole benchmark batch through the worker
//     pool and validates every result against the benchmark's Go
//     oracle; the experiment harness (NewExperiments) is built on it
//     and nothing else — every figure is one sweep of one RunSuite per
//     configuration, all at once on a shared run queue — so
//     regenerating the paper's figures fans out across cores.
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
// Device.Run is synchronous, and sugar for a one-launch stream. To
// pipeline independent work open streams (Device.NewStream): FIFO lanes
// in the CUDA mold whose Launch returns a Pending future, ordered
// across streams by Record/WaitEvent and drained by Synchronize, all
// sharing the device's run queue (WithWorkers, WithRunQueue,
// WithStreamQueueDepth). Streams never change what a simulation
// computes, and a failed operation poisons only its own stream. The
// contract — ordering, determinism, poison — is the header of
// internal/device/stream.go; the README's "Streams" section has a
// worked example, examples/streams a runnable one.
//
// # Batch scheduling and memoization
//
// RunSuite claims its entries longest-job-first by measured or
// calibrated cost, WithAutoPartition runs a batch's heavy tail in the
// partitioned timing model (waves on cold SMs, not host parallelism),
// and WithSimCache memoizes oracle-validated entries under a key that
// digests the whole configuration; none of the three can change a
// result. SuiteResult.Cached says whether an entry was
// simulated for the call or served by the cache. Package
// internal/device's comment ("Admission and ordering", "Batch
// scheduling and memoization") owns the description,
// internal/device/simcache.go the cache-key argument.
//
// # Trace replay
//
// WithTraceReplay(true) records a per-thread trace (branch bits and
// memory addresses) during a benchmark's first full simulation and
// replays it for every later configuration that differs only in
// timing: bit-identical statistics without the functional layer
// (Result.Replayed says which path ran). Recording costs a plain
// simulation plus one shadow-word update per memory access — the race
// analysis runs as the launch does, nothing is logged. Kernels whose
// behavior is timing-dependent are detected at record time and, like a
// replay that desyncs, fall back to full simulation with the reason
// logged (WithReplayLog). RunSuite is the one door to trace replay:
// Run and Stream.Launch always simulate in full. The header of
// internal/device/replay.go owns the validity-domain argument, package
// internal/replay the trace format and the race analysis.
//
// # Memory hierarchy
//
// By default every SM has the paper's private L1 over a flat-latency,
// bandwidth-limited DRAM port, which keeps default runs cycle-exact
// with the reproduced figures. WithL2 and WithInterconnect put a NoC
// crossbar and a shared banked L2 between the L1s and DRAM, timed
// inline, so Result.DeviceCycles and the Stats.Mem.L2 / Stats.Mem.NoC
// counters become contention-aware: still bit-identical across worker
// counts and repeat runs, but dependent on the SM count. Package
// internal/device's comment ("Shared memory system") and
// internal/device/memsys.go own the model and its determinism argument.
//
// # Failure semantics
//
// Every failure is typed and contained: a panic becomes a *PanicError
// failing only its launch, stream or suite entry; Config.MaxCycles
// yields a *LivelockError and WithLaunchTimeout a *TimeoutError, both
// with a snapshot of the stuck SM; the cache never stores a failure; a
// launch that cannot start (nil, no program, an empty grid) is an error
// at the call. The header of
// internal/device/guard.go owns the contract, internal/faultinject the
// fault plane that exercises it.
//
// # Simulation speed and measuring it
//
// The scheduling loop is event-driven but cycle-exact (a per-warp
// issue-candidate cache, described in the header of
// internal/sm/schedfast.go: a warp stalled by the scoreboard sleeps out
// of the primary walk and its stall ticks are settled in closed form
// when it wakes, and a warp-split advancing between its neighbours moves
// in place, without a heap rebuild), an issued instruction executes
// warp-wide over a register-major register file (package internal/exec's
// comment), both cache levels keep their outstanding misses in one MSHR
// table — a heap on ready cycle indexed by block, so a miss costs a probe
// and a sift rather than scans of hundreds of fills in flight — and the
// steady-state issue path does not allocate. That none
// of it moves a number is pinned by internal/device's walk_stats.golden
// (every sm.Stats counter, suite × architectures and variants) and the
// bench/ workload digests; that no execution path — partitioned,
// recycled, streamed, replayed — computes anything else is pinned by
// internal/device's law table (TestLaws). A launch
// does not build its SMs either, nor does a new device: a process-wide
// store keeps the SM shells, L2 and crossbar of launches that finished
// cleanly, and the next launch on any device re-arms them in place
// (internal/sm's Runner.Reset, which keeps its storage across
// configurations) — the result is bit-identical to a newly built SM's,
// and a launch that fails in any way leaves nothing behind for reuse.
// The words a shell's walk touches every cycle are allocated in whole
// cache lines, so two running shells never share one. The
// repository measures itself one way: the bench/ module (bench/README.md
// defines the workloads and metrics), compared between two commits with
// .github/scripts/bench-pair.sh.
//
// # Static analysis
//
// The invariants above — bit-identical statistics, a zero-allocation
// issue path, panic-isolated device goroutines — are also enforced
// statically by the repository's analyzer suite, which runs as one test
// (`go test ./internal/lint -run TestRepoLintClean`); the //sbwi:
// comment directives in the sources belong to it. Package
// internal/lint's comment lists the analyzers, the README's "Static
// analysis" section the directives. Lock discipline is the compiler's:
// shared state lives in a locked.Value, reachable only with its mutex
// held. Complete Merge aggregation is internal/statcheck's, which
// checks every statistics type's Merge by value.
//
// See the examples directory for runnable programs.
package sbwi
