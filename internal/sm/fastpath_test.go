package sm

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/replay"
)

// divergentLoopSrc keeps warps diverging and reconverging continuously:
// a data-dependent if/else inside a long counted loop. It sustains the
// issue path (heap mutations, SBI pairing, branch resolution) without
// memory traffic, so the steady state is pure scheduling work.
const divergentLoopSrc = `
	mov  r1, %tid
	mov  r3, 0
	mov  r4, 0
loop:
	and  r6, r4, 1
	isetp.eq r7, r6, 0
	bra  r7, even
	iadd r4, r4, 3
	bra  join
even:
	iadd r4, r4, 1
join:
	iadd r3, r3, 1
	isetp.lt r8, r3, 20000
	bra  r8, loop
	mov  r9, %ctaid
	mov  r10, %ntid
	imad r11, r9, r10, r1
	shl  r12, r11, 2
	mov  r13, %p0
	iadd r13, r13, r12
	st.g [r13], r4
	exit
`

// memIdleLoopSrc misses the L1 on every iteration (the stride walks a
// 256 KB region, far beyond the 48 KB L1), so warps spend most cycles
// waiting on DRAM and the fast-forward path dominates.
const memIdleLoopSrc = `
	mov  r1, %tid
	shl  r2, r1, 7
	mov  r3, 0
	mov  r4, 0
loop:
	imul r5, r3, 4099
	iadd r6, r2, r5
	and  r6, r6, 262143
	shr  r7, r6, 2
	shl  r6, r7, 2
	mov  r7, %p1
	iadd r7, r7, r6
	ld.g r8, [r7]
	iadd r4, r4, r8
	iadd r3, r3, 1
	isetp.lt r9, r3, 4000
	bra  r9, loop
	mov  r10, %ctaid
	mov  r11, %ntid
	imad r12, r10, r11, r1
	shl  r13, r12, 2
	mov  r14, %p0
	iadd r14, r14, r13
	st.g [r14], r4
	exit
`

// shortLoopSrc and shortMemSrc are the two kernels above with a shorter
// trip count: the same steady state, cheap enough to run to completion
// many times (replay recording, candidate-cache coherence).
var (
	shortLoopSrc = strings.Replace(divergentLoopSrc, "20000", "500", 1)
	shortMemSrc  = strings.Replace(memIdleLoopSrc, "4000", "100", 1)
)

// sharedLoopSrc is a race-free shared-memory stage in a long loop: each
// thread stores its counter, the block meets at a barrier, reads its
// mirror neighbour's slot, takes the SFU reciprocal and meets again
// before the next store. It sustains the shared-memory, barrier and SFU
// paths the other two loops never take.
const sharedLoopSrc = `
.shared 1024
	mov  r1, %tid
	shl  r2, r1, 2
	mov  r4, %ntid
	isub r5, r4, 1
	isub r5, r5, r1
	shl  r6, r5, 2
	mov  r3, 0
	mov  r8, 0
loop:
	st.s [r2], r3
	bar
	ld.s r7, [r6]
	rcp  r7, r7
	xor  r8, r8, r7
	bar
	iadd r3, r3, 1
	isetp.lt r9, r3, 20000
	bra  r9, loop
	mov  r10, %ctaid
	imad r11, r10, r4, r1
	shl  r12, r11, 2
	mov  r13, %p0
	iadd r13, r13, r12
	st.g [r13], r8
	exit
`

// l2Lower adapts a shared mem.L2 to the port an SM's L1 misses into.
type l2Lower struct{ l2 *mem.L2 }

func (p l2Lower) Access(now int64, store bool, block uint32) int64 {
	return p.l2.Access(now, block, store)
}

// steadyStateSteps is both the warm-up and the measured window of
// TestSteadyStateZeroAllocs: scratch buffers reach their final size
// well inside the warm-up.
const steadyStateSteps = 20000

// windowMallocs steps s through a warm-up and then a measured window of
// steadyStateSteps each, and returns the exact number of heap
// allocations inside the window. testing.AllocsPerRun would report the
// integer part of the mean, which reads 0 for an allocation made on
// fewer than every step.
func windowMallocs(t *testing.T, s *SM) uint64 {
	t.Helper()
	step := func() {
		done, err := s.step(1 << 30)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			t.Fatalf("kernel finished after %d cycles, before the measured window closed — lengthen it", s.now)
		}
	}
	for i := 0; i < steadyStateSteps; i++ {
		step()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steadyStateSteps; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSteadyStateZeroAllocs drives the hot loop directly through
// (*SM).step and asserts the steady-state issue path performs zero heap
// allocations, counted exactly over a window of steps, on every
// architecture: a divergence-heavy compute loop, a memory-latency-bound
// loop (which exercises the idle fast-forward), a shared-memory and
// barrier loop, and the memory loop again with the hit/miss warp split
// and behind a shared L2.
func TestSteadyStateZeroAllocs(t *testing.T) {
	memParams, memWords := []uint32{0, 4 * 256 * 4}, 4*256+65536
	kernelsUnderTest := []struct {
		name, src string
		params    []uint32
		words     int
		wire      func(*Config, *RunOpts) // nil: the architecture's defaults
	}{
		{"divergent-loop", divergentLoopSrc, []uint32{0}, 4 * 256, nil},
		{"mem-idle", memIdleLoopSrc, memParams, memWords, nil},
		{"shared-loop", sharedLoopSrc, []uint32{0}, 4 * 256, nil},
		{"mem-idle-split", memIdleLoopSrc, memParams, memWords,
			func(c *Config, _ *RunOpts) { c.SplitOnMemDivergence = true }},
		{"mem-idle-l2", memIdleLoopSrc, memParams, memWords,
			func(c *Config, o *RunOpts) { o.Lower = l2Lower{mem.NewL2(mem.DefaultL2(), c.Mem)} }},
	}
	for _, k := range kernelsUnderTest {
		for _, a := range Architectures() {
			cfg, opts := Configure(a), RunOpts{}
			if k.wire != nil {
				k.wire(&cfg, &opts)
			}
			if cfg.SplitOnMemDivergence && !cfg.usesHeap() {
				continue // the split needs a thread-frontier architecture
			}
			t.Run(k.name+"/"+a.String(), func(t *testing.T) {
				p := assembleFor(t, k.name, k.src, a)
				l := newLaunch(p, 4, 256, k.words, k.params...)
				r, err := NewRunner(cfg, l, 0, l.GridDim, opts)
				if err != nil {
					t.Fatal(err)
				}
				if n := windowMallocs(t, &r.s); n != 0 {
					t.Errorf("steady-state step allocated %d times in %d steps, want 0", n, steadyStateSteps)
				}
			})
		}
	}

	// Replay mode must be equally allocation-free: the replay-walk
	// cursors (Branch, PeekAddr, ConsumeAddr) replace the functional
	// layer in the same hot loop, so a replayed event gets the same
	// zero-allocation budget as a simulated one. Shorter trip counts
	// keep the record-time full run cheap while still outlasting the
	// warm-up and the window.
	replayKernels := []struct {
		name, src string
		params    []uint32
		words     int
	}{
		{"divergent-loop", shortLoopSrc, []uint32{0}, 4 * 256},
		{"mem-idle", strings.Replace(memIdleLoopSrc, "4000", "400", 1), memParams, memWords},
	}
	for _, k := range replayKernels {
		for _, a := range Architectures() {
			t.Run("replay/"+k.name+"/"+a.String(), func(t *testing.T) {
				cfg := Configure(a)
				p := assembleFor(t, k.name, k.src, a)
				mk := func() *exec.Launch { return newLaunch(p, 4, 256, k.words, k.params...) }
				tr, _ := recordTrace(t, cfg, mk)
				if !tr.Replayable {
					t.Fatalf("recording flagged the kernel racy: %s", tr.Reason)
				}
				l := mk()
				sess, err := replay.NewSession(tr, 0, l.GridDim)
				if err != nil {
					t.Fatal(err)
				}
				r, err := NewRunner(cfg, l, 0, l.GridDim, RunOpts{Replay: sess})
				if err != nil {
					t.Fatal(err)
				}
				if n := windowMallocs(t, &r.s); n != 0 {
					t.Errorf("steady-state replayed step allocated %d times in %d steps, want 0", n, steadyStateSteps)
				}
			})
		}
	}
}
