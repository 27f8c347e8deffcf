package sbwi

import (
	"context"
	"fmt"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/sched"
	"repro/internal/sm"
)

// Core type aliases: the public API surface of the library.
type (
	// Program is an assembled kernel.
	Program = isa.Program
	// Launch binds a program to a grid, parameters and global memory.
	Launch = exec.Launch
	// Config is a full micro-architecture configuration (paper table 2).
	Config = sm.Config
	// Arch selects one of the modeled micro-architectures.
	Arch = sm.Arch
	// Stats aggregates one simulation (IPC, issues, divergence, memory).
	Stats = sm.Stats
	// Result is a finished simulation: statistics plus optional trace.
	Result = sm.Result
	// Trace is a bounded issue-event recording for visualization.
	Trace = sm.Trace
	// Shuffle is a static lane-shuffling policy (paper table 1).
	Shuffle = sched.Shuffle
	// Benchmark is one entry of the benchmark suite (the paper's 21
	// kernels plus the synthetic WriteStorm store-saturation anchor).
	Benchmark = kernels.Benchmark
	// ExperimentTable is a rendered experiment (text or CSV).
	ExperimentTable = experiments.Table
)

// Failure types: every way a launch can fail carries a typed error, so
// callers branch with errors.Is/errors.As instead of string-matching.
type (
	// PanicError is a panic converted to an error at a device goroutine
	// boundary: the operation (including the launch identity when
	// known), the recovered value, and the panicking goroutine's stack.
	// A panic fails only its owning launch, stream or suite entry — the
	// device and its other streams stay fully usable.
	PanicError = device.PanicError
	// LivelockError reports a simulation that exceeded its cycle bound
	// (Config.MaxCycles), with a partial-state snapshot of the stuck SM.
	LivelockError = sm.LivelockError
	// TimeoutError reports a launch aborted by the WithLaunchTimeout
	// wall-clock watchdog, with a partial-state snapshot;
	// errors.Is(err, ErrLaunchTimeout) matches it.
	TimeoutError = sm.TimeoutError
	// ProgramError reports a Program that breaks a structural invariant
	// (unknown opcode, missing destination or store-data register,
	// target out of range, no terminator, shared memory outside
	// 0..48 KiB). Every entry point that takes a Launch — RunReference,
	// Device.Run, streams, suites — checks it before simulating, and
	// Assemble checks what it assembles.
	ProgramError = isa.ProgramError
)

// ErrLaunchTimeout is the sentinel in every watchdog timeout's chain:
// errors.Is(err, ErrLaunchTimeout) identifies a launch aborted by
// WithLaunchTimeout wherever it was caught — still queued, waiting on
// a stream predecessor, or mid-simulation.
var ErrLaunchTimeout = sm.ErrLaunchTimeout

// The modeled architectures (figure 7).
const (
	Baseline = sm.ArchBaseline
	SBI      = sm.ArchSBI
	SWI      = sm.ArchSWI
	SBISWI   = sm.ArchSBISWI
	Warp64   = sm.ArchWarp64
)

// Lane shuffling policies (paper table 1).
const (
	Identity   = sched.ShuffleIdentity
	MirrorOdd  = sched.ShuffleMirrorOdd
	MirrorHalf = sched.ShuffleMirrorHalf
	Xor        = sched.ShuffleXor
	XorRev     = sched.ShuffleXorRev
)

// FullyAssociative selects the unrestricted SWI secondary lookup.
const FullyAssociative = sched.AssocFull

// Assemble parses mini-ISA source and annotates every conditional
// branch with its reconvergence PC, ready for the baseline (stack)
// architecture. Use ThreadFrontier for the SBI/SWI program variant.
func Assemble(name, src string) (*Program, error) {
	p, err := asm.Assemble(name, src)
	if err != nil {
		return nil, err
	}
	if err := cfg.AnnotateReconvergence(p); err != nil {
		return nil, err
	}
	return p, nil
}

// ThreadFrontier returns a copy of p instrumented with the selective
// synchronization SYNC barriers of paper §3.3, the program variant the
// thread-frontier architectures (SBI, SWI, SBI+SWI, Warp64) execute.
func ThreadFrontier(p *Program) (*Program, error) {
	return cfg.InsertSyncs(p)
}

// Architectures lists the modeled architectures in figure-7 order.
func Architectures() []Arch { return sm.Architectures() }

// NewLaunch builds a launch. Params are byte offsets or scalar values
// the kernel reads via %p0..%p15; passing more than the ISA's 16
// parameters is a programming error and panics rather than silently
// dropping the excess.
func NewLaunch(p *Program, grid, block int, global []byte, params ...uint32) *Launch {
	l := &Launch{Prog: p, GridDim: grid, BlockDim: block, Global: global}
	if len(params) > len(l.Params) {
		panic(fmt.Sprintf("sbwi: NewLaunch: %d kernel parameters exceed the ISA's %d (%%p0..%%p%d)",
			len(params), len(l.Params), len(l.Params)-1))
	}
	copy(l.Params[:], params)
	return l
}

// RunReference executes the launch on the functional reference
// simulator (stack-based, warpWidth-wide warps) — the architectural
// oracle for kernel development.
func RunReference(l *Launch, warpWidth int) error {
	_, err := exec.RunReference(l, warpWidth)
	return err
}

// Verify runs a launch functionally on a copy and compares the final
// global memory against a second copy run on a device built from opts
// (for example WithArch(SBISWI)), returning an error on any mismatch.
// It is a convenience for validating custom kernels on every
// architecture.
func Verify(l *Launch, opts ...Option) error {
	ref := l.CloneGlobal()
	if _, err := exec.RunReference(ref, 32); err != nil {
		return fmt.Errorf("sbwi: reference: %w", err)
	}
	dev, err := NewDevice(opts...)
	if err != nil {
		return err
	}
	cyc := l.CloneGlobal()
	if _, err := dev.Run(context.Background(), cyc); err != nil {
		return fmt.Errorf("sbwi: cycle simulation: %w", err)
	}
	for i := range ref.Global {
		if ref.Global[i] != cyc.Global[i] {
			return fmt.Errorf("sbwi: memory differs from reference at byte %d", i)
		}
	}
	return nil
}

// Benchmarks returns the evaluation suite — the paper's 10 regular and
// 11 irregular kernels plus the synthetic WriteStorm store-saturation
// microbenchmark, 22 in all — each with deterministic inputs and a Go
// oracle.
func Benchmarks() []*Benchmark { return kernels.All() }

// BenchmarkByName finds a suite kernel.
func BenchmarkByName(name string) (*Benchmark, bool) { return kernels.ByName(name) }

// NewExperiments creates an experiment runner that regenerates the
// paper's tables and figures; see ExperimentNames. Every simulated
// experiment is one sweep — a device per point, all running at once on
// one shared run queue — and the runner's one SimCache is its only
// memo, so a cell several experiments need is simulated once.
func NewExperiments() *experiments.Runner { return experiments.NewRunner() }

// ExperimentNames lists the runnable experiments in the order
// sbwi-bench prints them: the paper's fig7a, fig7b, fig8a, fig8b, fig9
// and table2..table4, then the studies beyond it —
// ablation-scoreboard, ablation-memsplit, ablation-execlat,
// heap-pressure and memory-hierarchy.
func ExperimentNames() []string { return experiments.Experiments }
