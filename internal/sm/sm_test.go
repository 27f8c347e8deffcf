package sm

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/sched"
)

// kernels used across the tests. P0 is the byte offset of the output
// buffer in global memory.

const straightSrc = `
	mov  r1, %tid
	mov  r2, %ctaid
	mov  r3, %ntid
	imad r4, r2, r3, r1
	shl  r5, r4, 2
	mov  r6, %p0
	iadd r7, r6, r5
	imul r8, r4, 3
	iadd r8, r8, 7
	st.g [r7], r8
	exit
`

const ifelseSrc = `
	mov  r1, %tid
	and  r2, r1, 1
	isetp.eq r3, r2, 0
	bra  r3, even
	imul r4, r1, 3
	iadd r4, r4, 11
	imul r4, r4, 5
	bra  join
even:
	iadd r4, r1, 100
	imul r4, r4, 7
	iadd r4, r4, 1
join:
	mov  r5, %ctaid
	mov  r6, %ntid
	imad r7, r5, r6, r1
	shl  r8, r7, 2
	mov  r9, %p0
	iadd r9, r9, r8
	st.g [r9], r4
	exit
`

const loopSrc = `
	mov  r1, %tid
	imod r2, r1, 7
	mov  r3, 0
	mov  r4, 0
loop:
	isetp.ge r5, r3, r2
	bra  r5, done
	iadd r4, r4, r3
	iadd r4, r4, 13
	iadd r3, r3, 1
	bra  loop
done:
	mov  r5, %ctaid
	mov  r6, %ntid
	imad r7, r5, r6, r1
	shl  r8, r7, 2
	mov  r9, %p0
	iadd r9, r9, r8
	st.g [r9], r4
	exit
`

const barrierSrc = `
.shared 1024
	mov  r1, %tid
	shl  r2, r1, 2
	imul r3, r1, 5
	st.s [r2], r3
	bar
	mov  r4, %ntid
	isub r5, r4, 1
	isub r5, r5, r1
	shl  r6, r5, 2
	ld.s r7, [r6]
	mov  r8, %ctaid
	imad r9, r8, r4, r1
	shl  r10, r9, 2
	mov  r11, %p0
	iadd r11, r11, r10
	st.g [r11], r7
	exit
`

const gatherSrc = `
	mov  r1, %tid
	mov  r2, %ctaid
	mov  r3, %ntid
	imad r4, r2, r3, r1
	shl  r5, r4, 2
	mov  r6, %p1
	iadd r6, r6, r5
	ld.g r7, [r6]
	imul r7, r7, 3
	mov  r8, %p0
	iadd r8, r8, r5
	st.g [r8], r7
	exit
`

// assembleFor prepares the program variant an architecture needs: RecPC
// annotations for the baseline stack, SYNC insertion for thread-frontier
// designs.
func assembleFor(t *testing.T, name, src string, a Arch) *isa.Program {
	t.Helper()
	p, err := asm.Assemble(name, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.AnnotateReconvergence(p); err != nil {
		t.Fatal(err)
	}
	if a == ArchBaseline {
		return p
	}
	sp, err := cfg.InsertSyncs(p)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// benchLaunch builds b's launch in the program variant a runs.
func benchLaunch(t *testing.T, b *kernels.Benchmark, a Arch) *exec.Launch {
	t.Helper()
	l, err := b.NewLaunch(a != ArchBaseline)
	if err != nil {
		t.Fatalf("%v\n%s", err, b.Source)
	}
	return l
}

// newLaunch builds a launch with words*4 bytes of global memory.
func newLaunch(p *isa.Program, grid, block, words int, params ...uint32) *exec.Launch {
	l := &exec.Launch{
		Prog:     p,
		GridDim:  grid,
		BlockDim: block,
		Global:   make([]byte, words*4),
	}
	for i, v := range params {
		l.Params[i] = v
	}
	return l
}

// runBoth executes the launch on the cycle simulator and the functional
// reference and asserts bit-identical global memory.
func runBoth(t *testing.T, a Arch, name, src string, grid, block, words int, params ...uint32) *Result {
	t.Helper()
	c := Configure(a)

	progSim := assembleFor(t, name, src, a)
	lSim := newLaunch(progSim, grid, block, words, params...)

	progRef, err := asm.Assemble(name, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.AnnotateReconvergence(progRef); err != nil {
		t.Fatal(err)
	}
	lRef := newLaunch(progRef, grid, block, words, params...)
	if _, err := exec.RunReference(lRef, 32); err != nil {
		t.Fatalf("reference: %v", err)
	}

	res, err := Run(c, lSim)
	if err != nil {
		t.Fatalf("%s: %v", a, err)
	}
	if !bytes.Equal(lSim.Global, lRef.Global) {
		t.Fatalf("%s on %s: global memory differs from reference", name, a)
	}
	if res.Stats.Cycles <= 0 || res.Stats.ThreadInstrs == 0 {
		t.Fatalf("%s on %s: empty stats %+v", name, a, res.Stats)
	}
	return res
}

func TestAllArchsMatchReference(t *testing.T) {
	kernels := []struct {
		name, src          string
		grid, block, words int
		params             []uint32
	}{
		{"straight", straightSrc, 3, 128, 3 * 128, []uint32{0}},
		{"ifelse", ifelseSrc, 3, 96, 3 * 96, []uint32{0}},
		{"loop", loopSrc, 2, 128, 2 * 128, []uint32{0}},
		{"barrier", barrierSrc, 2, 128, 2 * 128, []uint32{0}},
		{"gather", gatherSrc, 2, 64, 2 * 2 * 64, []uint32{0, 2 * 64 * 4}},
	}
	for _, k := range kernels {
		for _, a := range Architectures() {
			t.Run(k.name+"/"+a.String(), func(t *testing.T) {
				res := runBoth(t, a, k.name, k.src, k.grid, k.block, k.words, k.params...)
				if res.Stats.IPC() <= 0 {
					t.Errorf("IPC = %f", res.Stats.IPC())
				}
			})
		}
	}
}

// SBI must co-issue the two divergent paths of the balanced if/else:
// secondary issues with SBI provenance, and the divergent section must
// beat the single-issue thread-frontier reference.
func TestSBICoIssuesBranches(t *testing.T) {
	res := runBoth(t, ArchSBI, "ifelse", ifelseSrc, 8, 256, 8*256, 0)
	if res.Stats.SBIPairs == 0 || res.Stats.SecondaryShare() == 0 {
		t.Errorf("SBI never paired branch instructions: %+v", res.Stats)
	}
	ref := runBoth(t, ArchWarp64, "ifelse", ifelseSrc, 8, 256, 8*256, 0)
	if res.Stats.Cycles >= ref.Stats.Cycles {
		t.Errorf("SBI (%d cycles) should beat Warp64 (%d cycles) on balanced if/else",
			res.Stats.Cycles, ref.Stats.Cycles)
	}
}

// SBI's sequential fallback must dual-issue MAD+LSU pairs on regular
// code: the store at pc N and the independent iadd at pc N+1 target
// distinct unit groups.
func TestSBISequentialDualIssue(t *testing.T) {
	src := `
	mov  r1, %tid
	mov  r2, %ctaid
	mov  r3, %ntid
	imad r4, r2, r3, r1
	shl  r5, r4, 2
	mov  r6, %p0
	iadd r7, r6, r5
	imul r8, r4, 3
	iadd r8, r8, 7
	st.g [r7], r8
	iadd r9, r4, 100
	mov  r10, %p1
	iadd r10, r10, r5
	st.g [r10], r9
	exit
`
	n := 8 * 256
	res := runBoth(t, ArchSBI, "straight2", src, 8, 256, 2*n, 0, uint32(n*4))
	if res.Stats.SeqPairs == 0 {
		t.Errorf("expected sequential dual-issues on straight-line code: %+v", res.Stats)
	}
}

// SWI must interweave warps on the unbalanced loop kernel.
func TestSWIInterweavesWarps(t *testing.T) {
	res := runBoth(t, ArchSWI, "loop", loopSrc, 8, 256, 8*256, 0)
	if res.Stats.SWIPairs == 0 {
		t.Errorf("SWI never paired warps: %+v", res.Stats)
	}
}

// The divergent kernels must actually diverge, and the baseline's
// reconvergence stack must bound its depth.
func TestDivergenceBookkeeping(t *testing.T) {
	res := runBoth(t, ArchBaseline, "loop", loopSrc, 2, 128, 2*128, 0)
	if res.Stats.Divergences == 0 {
		t.Error("loop kernel should diverge")
	}
	if res.Stats.MaxStackDepth < 2 {
		t.Errorf("stack depth = %d", res.Stats.MaxStackDepth)
	}
	resH := runBoth(t, ArchSBI, "loop", loopSrc, 2, 128, 2*128, 0)
	if resH.Stats.Merges == 0 {
		t.Error("heap should merge warp-splits")
	}
}

// Peak IPC sanity: the baseline cannot exceed its dual-issue bound and
// the interweaving designs cannot exceed the 104-lane back-end bound.
func TestIPCBounds(t *testing.T) {
	for _, a := range Architectures() {
		res := runBoth(t, a, "straight", straightSrc, 16, 256, 16*256, 0)
		c := Configure(a)
		bound := float64(2 * 32)
		if a != ArchBaseline {
			bound = float64(c.MADWidth + c.LSUWidth + c.SFUWidth)
		}
		if ipc := res.Stats.IPC(); ipc > bound {
			t.Errorf("%s: IPC %.1f exceeds bound %.1f", a, ipc, bound)
		}
	}
}

// Constraints must not change functional results and should reduce
// issue slots (or leave them equal) on divergent code.
func TestConstraintsReduceIssues(t *testing.T) {
	run := func(constraints bool) *Result {
		c := Configure(ArchSBI)
		c.Constraints = constraints
		p := assembleFor(t, "loop", loopSrc, ArchSBI)
		l := newLaunch(p, 8, 256, 8*256, 0)
		res, err := Run(c, l)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with := run(true)
	without := run(false)
	if with.Stats.ThreadInstrs != without.Stats.ThreadInstrs {
		t.Errorf("constraints changed committed work: %d vs %d",
			with.Stats.ThreadInstrs, without.Stats.ThreadInstrs)
	}
	if with.Stats.IssueSlots > without.Stats.IssueSlots {
		t.Errorf("constraints increased issues: %d vs %d",
			with.Stats.IssueSlots, without.Stats.IssueSlots)
	}
}

// The memory-divergence splitting extension must preserve results and
// actually split on a partially-hitting load pattern.
func TestMemDivergenceSplit(t *testing.T) {
	// Even threads re-touch a small hot region (hits after warm-up);
	// odd threads stride through fresh blocks every iteration (misses).
	// Mixed hit/miss loads within one warp trigger the split.
	src := `
	mov  r1, %tid
	mov  r2, %ctaid
	mov  r3, %ntid
	imad r4, r2, r3, r1
	and  r5, r1, 1
	mov  r12, 0
	mov  r13, 0
loop:
	shl  r6, r1, 2
	and  r6, r6, 511
	imul r7, r12, 512
	iadd r7, r7, 512
	shl  r8, r1, 3
	and  r8, r8, 448
	iadd r7, r7, r8
	selp r9, r7, r6, r5
	mov  r10, %p1
	iadd r10, r10, r9
	ld.g r11, [r10]
	iadd r13, r13, r11
	iadd r12, r12, 1
	isetp.lt r14, r12, 6
	bra  r14, loop
	shl  r15, r4, 2
	mov  r16, %p0
	iadd r16, r16, r15
	st.g [r16], r13
	exit
`
	c := Configure(ArchSBI)
	c.SplitOnMemDivergence = true
	p := assembleFor(t, "memdiv", src, ArchSBI)
	words := 2*256 + 1024 // outputs + gather region
	l := newLaunch(p, 2, 256, words, 0, uint32(2*256*4))

	pRef, err := asm.Assemble("memdiv", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.AnnotateReconvergence(pRef); err != nil {
		t.Fatal(err)
	}
	lRef := newLaunch(pRef, 2, 256, words, 0, uint32(2*256*4))
	for i := range lRef.Global {
		lRef.Global[i] = byte(i * 7)
		l.Global[i] = byte(i * 7)
	}
	if _, err := exec.RunReference(lRef, 32); err != nil {
		t.Fatal(err)
	}

	res, err := Run(c, l)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(l.Global, lRef.Global) {
		t.Fatal("memory-divergence splitting changed results")
	}
	if res.Stats.MemSplits == 0 {
		t.Error("expected memory-divergence splits")
	}
}

// A load whose destination doubles as its address register must
// survive memory-divergence splitting: miss threads replay the load,
// so their registers must stay untouched at the first issue
// (regression test for a bug found by the ablation harness).
func TestMemDivergenceSplitSelfAddressedLoad(t *testing.T) {
	src := `
	mov  r1, %tid
	mov  r12, 0
	mov  r13, 0
loop:
	and  r6, r1, 1
	imul r7, r12, 512
	iadd r7, r7, 512
	shl  r8, r1, 3
	and  r8, r8, 448
	iadd r7, r7, r8
	shl  r9, r1, 2
	and  r9, r9, 511
	selp r10, r7, r9, r6
	mov  r11, %p1
	iadd r10, r11, r10
	ld.g r10, [r10]
	iadd r13, r13, r10
	iadd r12, r12, 1
	isetp.lt r14, r12, 6
	bra  r14, loop
	mov  r15, %p0
	shl  r16, r1, 2
	iadd r15, r15, r16
	st.g [r15], r13
	exit
`
	c := Configure(ArchSBISWI)
	c.SplitOnMemDivergence = true
	p := assembleFor(t, "selfaddr", src, ArchSBISWI)
	words := 256 + 1024
	l := newLaunch(p, 1, 256, words, 0, uint32(256*4))

	pRef, err := asm.Assemble("selfaddr", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.AnnotateReconvergence(pRef); err != nil {
		t.Fatal(err)
	}
	lRef := newLaunch(pRef, 1, 256, words, 0, uint32(256*4))
	for i := range lRef.Global {
		lRef.Global[i] = byte(i * 13)
		l.Global[i] = byte(i * 13)
	}
	if _, err := exec.RunReference(lRef, 32); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(c, l); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(l.Global, lRef.Global) {
		t.Fatal("self-addressed load corrupted by memory-divergence split")
	}
}

// Lane shuffling policies must all preserve functional results.
func TestShufflePoliciesFunctional(t *testing.T) {
	for _, pol := range sched.Shuffles() {
		c := Configure(ArchSWI)
		c.Shuffle = pol
		p := assembleFor(t, "ifelse", ifelseSrc, ArchSWI)
		l := newLaunch(p, 4, 256, 4*256, 0)

		pRef, _ := asm.Assemble("ifelse", ifelseSrc)
		if err := cfg.AnnotateReconvergence(pRef); err != nil {
			t.Fatal(err)
		}
		lRef := newLaunch(pRef, 4, 256, 4*256, 0)
		if _, err := exec.RunReference(lRef, 32); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(c, l); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if !bytes.Equal(l.Global, lRef.Global) {
			t.Errorf("shuffle %v changed results", pol)
		}
	}
}

// Associativity sweep must preserve results and never beat full
// associativity by more than noise on this tiny kernel.
func TestAssociativityFunctional(t *testing.T) {
	for _, assoc := range []int{sched.AssocFull, 11, 3, 1} {
		c := Configure(ArchSWI)
		c.Assoc = assoc
		p := assembleFor(t, "loop", loopSrc, ArchSWI)
		l := newLaunch(p, 4, 256, 4*256, 0)
		if _, err := Run(c, l); err != nil {
			t.Fatalf("assoc %d: %v", assoc, err)
		}
	}
}

func TestRunValidation(t *testing.T) {
	p := assembleFor(t, "straight", straightSrc, ArchBaseline)
	c := Configure(ArchBaseline)

	// Block larger than the SM.
	l := newLaunch(p, 1, c.NumWarps*c.WarpWidth+1, 4096, 0)
	if _, err := Run(c, l); err == nil {
		t.Error("oversized block must be rejected")
	}
	if n := ResidentCTAs(c, l); n != 0 {
		t.Errorf("an oversized block fits %d times on one SM, want 0", n)
	}

	// Negative associativity: the SWI lookup cannot be built.
	negAssoc := Configure(ArchSWI)
	negAssoc.Assoc = -1
	if _, err := Run(negAssoc, newLaunch(assembleFor(t, "straight", straightSrc, ArchSWI), 1, 64, 64, 0)); err == nil {
		t.Error("negative associativity must be rejected")
	}

	// Missing RecPC annotations for the stack.
	raw, err := asm.Assemble("ifelse", ifelseSrc)
	if err != nil {
		t.Fatal(err)
	}
	l2 := newLaunch(raw, 1, 64, 64, 0)
	if _, err := Run(c, l2); err == nil {
		t.Error("unannotated divergent branch must be rejected on the baseline")
	}

	// Bad config.
	bad := Configure(ArchSBI)
	bad.WarpWidth = 48
	if err := bad.Validate(); err == nil {
		t.Error("non-power-of-two width must be rejected")
	}
	bad2 := Configure(ArchBaseline)
	bad2.SplitOnMemDivergence = true
	if err := bad2.Validate(); err == nil {
		t.Error("mem splitting on the stack baseline must be rejected")
	}
	// Out-of-range memory and front-end timing: the L1 must tile into
	// a set, the DRAM port must move data, and no latency may be negative.
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"L1Bytes=0", func(c *Config) { c.Mem.L1Bytes = 0 }},
		{"L1Ways=0", func(c *Config) { c.Mem.L1Ways = 0 }},
		{"BlockBytes=0", func(c *Config) { c.Mem.BlockBytes = 0 }},
		{"BlockBytes=96", func(c *Config) { c.Mem.BlockBytes = 96 }},
		{"BytesPerCycle=0", func(c *Config) { c.Mem.BytesPerCycle = 0 }},
		{"BytesPerCycle=-1", func(c *Config) { c.Mem.BytesPerCycle = -1 }},
		{"MemLatency=-5", func(c *Config) { c.Mem.MemLatency = -5 }},
		{"HitLatency=-1", func(c *Config) { c.Mem.HitLatency = -1 }},
		{"StoreQueue=-1", func(c *Config) { c.Mem.StoreQueue = -1 }},
		{"IssueDelay=-1", func(c *Config) { c.IssueDelay = -1 }},
		{"SharedLatency=-1", func(c *Config) { c.SharedLatency = -1 }},
	} {
		c := Configure(ArchSBISWI)
		tc.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s must be rejected", tc.name)
		}
	}
}

// Out-of-bounds accesses must surface as errors, not panics.
func TestMemoryFaultReported(t *testing.T) {
	src := `
	mov  r1, 1000000
	ld.g r2, [r1]
	exit
`
	p := assembleFor(t, "oob", src, ArchSBI)
	l := newLaunch(p, 1, 64, 16, 0)
	if _, err := Run(Configure(ArchSBI), l); err == nil {
		t.Error("expected out-of-bounds error")
	}
}

func TestTraceRecording(t *testing.T) {
	c := Configure(ArchSBI)
	c.TraceCap = 64
	p := assembleFor(t, "ifelse", ifelseSrc, ArchSBI)
	l := newLaunch(p, 1, 64, 64, 0)
	res, err := Run(c, l)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || len(res.Trace.Events) == 0 {
		t.Fatal("trace empty")
	}
	if out := res.Trace.Render(); len(out) == 0 {
		t.Error("Render produced nothing")
	}
	if out := res.Trace.Lanes(64); len(out) == 0 {
		t.Error("Lanes produced nothing")
	}

	// Below the run's issue count the trace keeps the first TraceCap
	// events and Render ends by saying how many it dropped.
	c.TraceCap = 4
	res, err = Run(c, newLaunch(p, 1, 64, 64, 0))
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if len(tr.Events) != c.TraceCap || tr.Dropped == 0 {
		t.Errorf("TraceCap %d: %d events, %d dropped; want %d events and some dropped", c.TraceCap, len(tr.Events), tr.Dropped, c.TraceCap)
	}
	if want := fmt.Sprintf("... %d further events dropped\n", tr.Dropped); !strings.HasSuffix(tr.Render(), want) {
		t.Errorf("Render does not end with %q:\n%s", want, tr.Render())
	}
}

// The figure-2 example: an if/else across 2 warps. SBI+SWI must finish
// no later than plain SIMT-style Warp64 execution.
func TestCombinedNoSlowerThanSingleIssue(t *testing.T) {
	both := runBoth(t, ArchSBISWI, "ifelse", ifelseSrc, 8, 256, 8*256, 0)
	single := runBoth(t, ArchWarp64, "ifelse", ifelseSrc, 8, 256, 8*256, 0)
	if both.Stats.Cycles > single.Stats.Cycles {
		t.Errorf("SBI+SWI (%d cycles) slower than Warp64 (%d)", both.Stats.Cycles, single.Stats.Cycles)
	}
}
