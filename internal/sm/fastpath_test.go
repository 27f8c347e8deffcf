package sm

import (
	"strings"
	"testing"

	"repro/internal/exec"
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

// TestSteadyStateZeroAllocs drives the hot loop directly through
// (*SM).step and asserts the steady-state issue path performs zero heap
// allocations per cycle, for both a divergence-heavy compute loop and a
// memory-latency-bound loop (which exercises the idle fast-forward),
// on every architecture.
func TestSteadyStateZeroAllocs(t *testing.T) {
	kernelsUnderTest := []struct {
		name, src string
		params    []uint32
		words     int
	}{
		{"divergent-loop", divergentLoopSrc, []uint32{0}, 4 * 256},
		{"mem-idle", memIdleLoopSrc, []uint32{0, 4 * 256 * 4}, 4*256 + 65536},
	}
	for _, k := range kernelsUnderTest {
		for _, a := range Architectures() {
			t.Run(k.name+"/"+a.String(), func(t *testing.T) {
				cfg := Configure(a)
				p := assembleFor(t, k.name, k.src, a)
				l := newLaunch(p, 4, 256, k.words, k.params...)
				r, err := NewRunner(cfg, l, 0, l.GridDim, RunOpts{})
				if err != nil {
					t.Fatal(err)
				}
				s := &r.s
				const maxCycles = int64(1) << 30
				// Warm up past block launch, first divergences and
				// scratch growth into the steady state.
				for i := 0; i < 600; i++ {
					done, err := s.step(maxCycles)
					if err != nil {
						t.Fatal(err)
					}
					if done {
						t.Fatalf("kernel finished during warm-up after %d cycles — lengthen it", s.now)
					}
				}
				avg := testing.AllocsPerRun(400, func() {
					if _, err := s.step(maxCycles); err != nil {
						t.Fatal(err)
					}
				})
				if avg != 0 {
					t.Errorf("steady-state step allocates %.2f times per cycle, want 0", avg)
				}
			})
		}
	}

	// Replay mode must be equally allocation-free: the replay-walk
	// cursors (Branch, PeekAddr, ConsumeAddr) replace the functional
	// layer in the same hot loop, so a replayed event gets the same
	// zero-allocation budget as a simulated one. The shorter
	// kernels keep the record-time full run cheap; 1000 steps stay well
	// inside their steady state.
	replayKernels := []struct {
		name, src string
		params    []uint32
		words     int
	}{
		{"divergent-loop", shortLoopSrc, []uint32{0}, 4 * 256},
		{"mem-idle", shortMemSrc, []uint32{0, 4 * 256 * 4}, 4*256 + 65536},
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
				s := &r.s
				const maxCycles = int64(1) << 30
				for i := 0; i < 600; i++ {
					done, err := s.step(maxCycles)
					if err != nil {
						t.Fatal(err)
					}
					if done {
						t.Fatalf("kernel finished during warm-up after %d cycles — lengthen it", s.now)
					}
				}
				avg := testing.AllocsPerRun(400, func() {
					if _, err := s.step(maxCycles); err != nil {
						t.Fatal(err)
					}
				})
				if avg != 0 {
					t.Errorf("steady-state replayed step allocates %.2f times per cycle, want 0", avg)
				}
			})
		}
	}
}
