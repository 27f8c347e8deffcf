// Package kernels provides the benchmark suite of the paper's
// evaluation (§5): mini-ISA ports of ten regular and eleven irregular
// kernels from the CUDA SDK, Rodinia, and the Table Maker's Dilemma
// application, each with a deterministic input generator and a pure-Go
// reference implementation used as a functional oracle. One synthetic
// store-saturation microbenchmark (WriteStorm) rides along in the
// irregular set as a regression anchor for the shared-memory-system
// model.
//
// The ports reproduce each benchmark's control-flow and memory-access
// structure (the properties SBI/SWI react to) rather than its full
// numerics.
package kernels

import (
	"fmt"
	"sync"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/exec"
	"repro/internal/isa"
)

// Benchmark is one suite entry.
type Benchmark struct {
	Name    string
	Regular bool // paper criterion: average IPC >= 30 at 64-wide warps
	Source  string

	Grid  int // thread blocks
	Block int // threads per block

	// Setup returns the initial global-memory image and the kernel
	// parameters (byte offsets of the buffers).
	Setup func(b *Benchmark) ([]byte, [isa.NumParams]uint32)

	// Reference mutates global to the expected post-kernel state; it is
	// the functional oracle for both simulators.
	Reference func(b *Benchmark, global []byte, params [isa.NumParams]uint32)

	// FrontierLayout is false for TMD1, whose blocks are deliberately
	// laid out against thread-frontier order (§5.1).
	FrontierLayout bool

	// mu guards the lazily built caches below: suite entries are shared
	// package state, and the device's batch runner assembles and
	// oracle-checks benchmarks from concurrent goroutines. Each cache
	// value is immutable once memoized, so a reference obtained under
	// the lock stays valid after releasing it.
	mu sync.Mutex
	// plain is RecPC-annotated, no SYNCs (baseline stack).
	plain *isa.Program //sbwi:guardedby mu
	// tf is SYNC-instrumented (thread-frontier designs).
	tf *isa.Program //sbwi:guardedby mu
	// pristine is the memoized Setup image (do not mutate).
	pristine []byte //sbwi:guardedby mu
	// params are the memoized Setup parameters.
	params [isa.NumParams]uint32 //sbwi:guardedby mu
	// expected is the memoized oracle image (do not mutate).
	expected []byte //sbwi:guardedby mu
}

// Program returns the assembled kernel: the SYNC-instrumented
// thread-frontier variant or the plain annotated one. Programs are
// assembled on first use and cached; Program is safe for concurrent
// use.
func (b *Benchmark) Program(threadFrontier bool) (*isa.Program, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.plain == nil {
		p, err := asm.Assemble(b.Name, b.Source)
		if err != nil {
			return nil, fmt.Errorf("kernels: %s: %w", b.Name, err)
		}
		if err := cfg.AnnotateReconvergence(p); err != nil {
			return nil, fmt.Errorf("kernels: %s: %w", b.Name, err)
		}
		tf, err := cfg.InsertSyncs(p)
		if err != nil {
			return nil, fmt.Errorf("kernels: %s: %w", b.Name, err)
		}
		b.plain, b.tf = p, tf
	}
	if threadFrontier {
		return b.tf, nil
	}
	return b.plain, nil
}

// setup returns the benchmark's pristine pre-launch image (shared —
// callers must copy before mutating) and kernel parameters. The input
// generators are deterministic, so Setup runs once per benchmark and
// the image is memoized; repeated launches across experiment passes
// copy from the cache instead of regenerating the inputs. Safe for
// concurrent use: the memoization fills under b.mu, and the returned
// image is immutable once memoized.
func (b *Benchmark) setup() ([]byte, [isa.NumParams]uint32) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.pristine == nil {
		b.pristine, b.params = b.Setup(b)
		if b.pristine == nil {
			b.pristine = []byte{} // distinguish "memoized empty" from "not yet run"
		}
	}
	return b.pristine, b.params
}

// NewLaunch builds a fresh launch (new memory image) for the benchmark.
func (b *Benchmark) NewLaunch(threadFrontier bool) (*exec.Launch, error) {
	p, err := b.Program(threadFrontier)
	if err != nil {
		return nil, err
	}
	pristine, params := b.setup()
	global := append([]byte(nil), pristine...)
	return &exec.Launch{
		Prog:     p,
		GridDim:  b.Grid,
		BlockDim: b.Block,
		Params:   params,
		Global:   global,
	}, nil
}

// Expected returns the expected final global image for a fresh launch.
// The oracle runs once per benchmark (over a copy of the memoized
// pristine image) and the result is memoized — callers compare against
// it and must not mutate it. Safe for concurrent use.
func (b *Benchmark) Expected() []byte {
	// Fetch the pristine image through the self-locking setup first;
	// b.mu is not reentrant, and running the oracle outside the
	// memoization lock would let two racers both fill b.expected.
	pristine, params := b.setup()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.expected == nil {
		global := append([]byte(nil), pristine...)
		b.Reference(b, global, params)
		b.expected = global
	}
	return b.expected
}

// All returns the full suite in the paper's figure-7 order (regular
// then irregular).
func All() []*Benchmark {
	out := make([]*Benchmark, 0, len(registry))
	out = append(out, Regular()...)
	out = append(out, Irregular()...)
	return out
}

// Regular returns the regular-application suite (figure 7a).
func Regular() []*Benchmark { return pick(true) }

// Irregular returns the irregular-application suite (figure 7b).
func Irregular() []*Benchmark { return pick(false) }

func pick(regular bool) []*Benchmark {
	var out []*Benchmark
	for _, b := range registry {
		if b.Regular == regular {
			out = append(out, b)
		}
	}
	return out
}

// ByName finds a benchmark.
func ByName(name string) (*Benchmark, bool) {
	for _, b := range registry {
		if b.Name == name {
			return b, true
		}
	}
	return nil, false
}

// registry lists the suite in the paper's figure-7 order.
var registry = buildRegistry()

func buildRegistry() []*Benchmark {
	bs := []*Benchmark{
		// Regular (figure 7a).
		newThreeDFD(),
		newBackprop(),
		newBinomialOptions(),
		newBlackScholes(),
		newDWTHaar1D(),
		newFastWalshTransform(),
		newHotspot(),
		newMatrixMul(),
		newMonteCarlo(),
		newTranspose(),
		// Irregular (figure 7b).
		newBFS(),
		newConvolutionSeparable(),
		newEigenvalues(),
		newHistogram(),
		newLUD(),
		newMandelbrot(),
		newNeedlemanWunsch(),
		newSortingNetworks(),
		newSRAD(),
		newTMD1(),
		newTMD2(),
		// Synthetic additions (not in the paper's figure 7).
		newWriteStorm(),
	}
	for _, b := range bs {
		if b.Setup == nil || b.Reference == nil || b.Source == "" || b.Grid <= 0 || b.Block <= 0 {
			panic(fmt.Sprintf("kernels: %s incompletely defined", b.Name))
		}
	}
	return bs
}
