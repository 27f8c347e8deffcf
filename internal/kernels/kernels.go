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
	Name string
	// Regular is the paper's classification of the source application,
	// which selects its figure-7 panel (7a regular, 7b irregular). It is
	// not a measured property of the port: under Warp64 five regular
	// ports average below 30 IPC and nine irregular ones above it
	// (ROADMAP item 1(i)).
	Regular bool
	Source  string

	Grid  int // thread blocks
	Block int // threads per block

	// Setup returns the initial global-memory image and the kernel
	// parameters (byte offsets of the buffers).
	Setup func(b *Benchmark) ([]byte, [isa.NumParams]uint32)

	// Reference mutates global to the expected post-kernel state; it is
	// the functional oracle for both simulators.
	Reference func(b *Benchmark, global []byte, params [isa.NumParams]uint32)

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
func All() []*Benchmark { return append([]*Benchmark(nil), registry...) }

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

// kernel declares one suite entry: its launch geometry and assembly;
// its global image, words 4-byte words that fill writes from an rng
// seeded with seed (fill is nil for a kernel with no input); its
// parameters, byte offsets of the buffers; and its oracle ref, which
// turns the launch image into the expected one.
type kernel struct {
	name        string
	regular     bool
	grid, block int
	src         string
	words       int
	seed        uint32
	params      []uint32
	fill        func(g image, r *rng)
	ref         func(g image)
}

// gid is the prologue most kernels open with: r4 is the global thread
// id, and r1 = %tid, r2 = %ctaid and r3 = %ntid stay live. Kernels
// that declare shared memory spell it out after their .shared line.
const gid = `
	mov  r1, %tid
	mov  r2, %ctaid
	mov  r3, %ntid
	imad r4, r2, r3, r1`

// bench builds the suite entry k declares.
func (k kernel) bench() *Benchmark {
	if k.src == "" || k.grid <= 0 || k.block <= 0 || k.words <= 0 || k.ref == nil {
		panic(fmt.Sprintf("kernels: %s incompletely defined", k.name))
	}
	var params [isa.NumParams]uint32
	copy(params[:], k.params)
	return &Benchmark{
		Name: k.name, Regular: k.regular, Source: k.src, Grid: k.grid, Block: k.block,
		Setup: func(*Benchmark) ([]byte, [isa.NumParams]uint32) {
			g := make(image, 4*k.words)
			if k.fill != nil {
				k.fill(g, newRng(k.seed))
			}
			return g, params
		},
		Reference: func(_ *Benchmark, global []byte, _ [isa.NumParams]uint32) { k.ref(global) },
	}
}

// registry lists the suite in the paper's figure-7 order.
var registry = buildRegistry()

func buildRegistry() []*Benchmark {
	ks := []kernel{
		// Regular (figure 7a).
		threeDFD(),
		backprop(),
		binomialOptions(),
		blackScholes(),
		dwtHaar1D(),
		fastWalshTransform(),
		hotspot(),
		matrixMul(),
		monteCarlo(),
		transpose(),
		// Irregular (figure 7b).
		bfs(),
		convolutionSeparable(),
		eigenvalues(),
		histogram(),
		lud(),
		mandelbrot(),
		needlemanWunsch(),
		sortingNetworks(),
		srad(),
		tmd("TMD1", tmd1Source),
		tmd("TMD2", tmd2Source),
		// Synthetic additions (not in the paper's figure 7).
		writeStorm(),
	}
	bs := make([]*Benchmark, len(ks))
	for i, k := range ks {
		bs[i] = k.bench()
	}
	return bs
}
