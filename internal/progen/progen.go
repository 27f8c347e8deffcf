// Package progen generates random structured SIMT programs for
// differential testing: every generated program terminates by
// construction, and its architectural result is defined purely by
// per-thread semantics, so the functional reference simulator and the
// cycle-level model must agree bit-for-bit on every architecture.
//
// Programs are random trees of regions:
//
//	Seq    — a run of random ALU instructions
//	If     — a data-dependent balanced or unbalanced if/else
//	Loop   — a counted loop (bounded trips, possibly thread-varying)
//	Store  — a write of a live register to the thread's output slot
//
// The generator only ever emits forward conditional branches plus
// counted backward loops, so control flow always reaches EXIT.
//
// Kernel is the one way a generated program becomes a launch: it turns
// (seed, regions, grid, block) into a *kernels.Benchmark that every
// simulator runs like a suite kernel. Its image is one zeroed word per
// thread and its parameters are zero, because the program stores its
// checksum to %p0 + 4·gid with %p0 = 0; its oracle is exec.RunReference
// on the plain program. Every differential test builds its inputs
// through Kernel or Kernels, so a change to what a generated kernel
// reads or writes is an edit to Kernel alone.
package progen

import (
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/kernels"
)

// Gen holds generator state. The programs it writes use r1 = tid,
// r2 = gid, r3 = output base; r4..r11 are data registers the generated
// code reads and writes; r12..r15 are scratch (loop counters,
// predicates).
type Gen struct {
	rng   uint64
	buf   strings.Builder
	label int
	depth int
}

// New creates a generator with the given seed.
func New(seed uint64) *Gen {
	if seed == 0 {
		seed = 0x5DEECE66D
	}
	return &Gen{rng: seed}
}

func (g *Gen) next() uint64 {
	g.rng ^= g.rng << 13
	g.rng ^= g.rng >> 7
	g.rng ^= g.rng << 17
	return g.rng
}

func (g *Gen) intn(n int) int { return int(g.next() % uint64(n)) }

func (g *Gen) newLabel(prefix string) string {
	g.label++
	return fmt.Sprintf("%s%d", prefix, g.label)
}

const (
	dataRegs  = 8 // r4..r11
	firstData = 4
)

func (g *Gen) dataReg() int { return firstData + g.intn(dataRegs) }

// emit writes one line.
func (g *Gen) emit(format string, args ...any) {
	fmt.Fprintf(&g.buf, format+"\n", args...)
}

// alu emits one random integer ALU instruction over the data registers.
// Only wrap-safe integer ops are used so results are well-defined.
func (g *Gen) alu() {
	d, a, b := g.dataReg(), g.dataReg(), g.dataReg()
	switch g.intn(8) {
	case 0:
		g.emit("\tiadd r%d, r%d, r%d", d, a, b)
	case 1:
		g.emit("\tisub r%d, r%d, r%d", d, a, b)
	case 2:
		g.emit("\timul r%d, r%d, r%d", d, a, b)
	case 3:
		g.emit("\txor r%d, r%d, r%d", d, a, b)
	case 4:
		g.emit("\tand r%d, r%d, r%d", d, a, b)
	case 5:
		g.emit("\tor r%d, r%d, r%d", d, a, b)
	case 6:
		g.emit("\tshl r%d, r%d, %d", d, a, 1+g.intn(4))
	default:
		g.emit("\timad r%d, r%d, %d, r%d", d, a, 1+g.intn(7), b)
	}
}

// cond emits a data-dependent predicate into r12.
func (g *Gen) cond() {
	a := g.dataReg()
	g.emit("\tand r13, r%d, %d", a, 1+g.intn(7))
	g.emit("\tisetp.%s r12, r13, %d", []string{"eq", "ne", "lt", "gt"}[g.intn(4)], g.intn(4))
}

// region emits one random region. budget bounds total emitted work.
func (g *Gen) region(budget *int) {
	if *budget <= 0 {
		return
	}
	*budget--
	choice := g.intn(10)
	switch {
	case choice < 3 || g.depth >= 3: // plain sequence
		for i := 0; i <= g.intn(4); i++ {
			g.alu()
		}

	case choice < 7: // if or if/else (thread-varying predicate)
		g.depth++
		elseL, joinL := g.newLabel("else"), g.newLabel("join")
		g.cond()
		g.emit("\tbra r12, %s", elseL)
		g.region(budget)
		if g.intn(2) == 0 { // balanced
			g.emit("\tbra %s", joinL)
			g.emit("%s:", elseL)
			g.region(budget)
			g.emit("%s:", joinL)
		} else { // if without else
			g.emit("%s:", elseL)
		}
		g.depth--

	default: // counted loop, possibly thread-varying trip count
		g.depth++
		headL := g.newLabel("loop")
		trips := 1 + g.intn(5)
		if g.intn(2) == 0 {
			// Thread-varying: trips = 1 + (data & 3).
			g.emit("\tand r14, r%d, 3", g.dataReg())
			g.emit("\tiadd r14, r14, 1")
		} else {
			g.emit("\tmov r14, %d", trips)
		}
		g.emit("\tmov r15, 0")
		g.emit("%s:", headL)
		g.region(budget)
		g.emit("\tiadd r15, r15, 1")
		g.emit("\tisetp.lt r12, r15, r14")
		g.emit("\tbra r12, %s", headL)
		g.depth--
	}
}

// Program generates one random kernel: it seeds the data registers
// from tid/gid, runs `regions` random regions, folds the data
// registers into a checksum, and stores it to out[gid].
func (g *Gen) Program(name string, regions int) (*isa.Program, error) {
	g.buf.Reset()
	g.emit("\tmov r1, %%tid")
	g.emit("\tmov r2, %%ctaid")
	g.emit("\tmov r3, %%ntid")
	g.emit("\timad r2, r2, r3, r1") // r2 = gid
	for i := 0; i < dataRegs; i++ {
		g.emit("\timad r%d, r2, %d, r1", firstData+i, 2*i+1)
		g.emit("\txor r%d, r%d, %d", firstData+i, firstData+i, g.intn(1<<16))
	}
	budget := regions
	for budget > 0 {
		g.region(&budget)
	}
	// Checksum and store.
	g.emit("\tmov r13, 0")
	for i := 0; i < dataRegs; i++ {
		g.emit("\timad r13, r13, 33, r%d", firstData+i)
	}
	g.emit("\tshl r14, r2, 2")
	g.emit("\tmov r15, %%p0")
	g.emit("\tiadd r15, r15, r14")
	g.emit("\tst.g [r15], r13")
	g.emit("\texit")

	p, err := asm.Assemble(name, g.buf.String())
	if err != nil {
		return nil, fmt.Errorf("progen: %w\n%s", err, g.buf.String())
	}
	if err := cfg.AnnotateReconvergence(p); err != nil {
		return nil, fmt.Errorf("progen: %w", err)
	}
	return p, nil
}

// Source returns the text of the last generated program.
func (g *Gen) Source() string { return g.buf.String() }

// Kernel is generated program seed with the given region budget, as a
// benchmark of grid blocks of block threads (see the package comment
// for its image, parameters and oracle). It is named gen<seed-1>, so
// Kernels' kernel i is gen<i>.
func Kernel(seed uint64, regions, grid, block int) *kernels.Benchmark {
	gen := New(seed)
	plain, err := gen.Program(fmt.Sprintf("gen%03d", seed-1), regions)
	if err != nil {
		panic(err) // every generated program assembles
	}
	return &kernels.Benchmark{
		Name: plain.Name, Source: gen.Source(), Grid: grid, Block: block,
		Setup: func(*kernels.Benchmark) ([]byte, [isa.NumParams]uint32) {
			return make([]byte, 4*grid*block), [isa.NumParams]uint32{}
		},
		Reference: func(_ *kernels.Benchmark, global []byte, params [isa.NumParams]uint32) {
			l := &exec.Launch{Prog: plain, GridDim: grid, BlockDim: block, Params: params, Global: global}
			if _, err := exec.RunReference(l, 32); err != nil {
				panic(err) // every generated program terminates
			}
		},
	}
}

// Kernels returns n generated kernels in launch-storm's shapes (grid
// 1-4, block 32-128, 3-6 regions), seeded 1 to n.
func Kernels(n int) []*kernels.Benchmark {
	ks := make([]*kernels.Benchmark, n)
	for i := range ks {
		ks[i] = Kernel(uint64(i)+1, 3+i/16%4, 1+i%4, 32*(1+i/4%4))
	}
	return ks
}
