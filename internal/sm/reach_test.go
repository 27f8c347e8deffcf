package sm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/reconv"
)

// The tests below each enter an issue-walk branch no suite kernel
// reaches, on every architecture, with the final image equal to the
// functional reference.

// A NOP takes an issue slot and commits no thread-instruction.
func TestNopIssuesOnEveryArch(t *testing.T) {
	nopSrc := strings.Replace(straightSrc, "\timul r8, r4, 3\n", "\tnop\n\timul r8, r4, 3\n", 1)
	for _, a := range Architectures() {
		t.Run(a.String(), func(t *testing.T) {
			base := runBoth(t, a, "straight", straightSrc, 3, 128, 3*128, 0)
			res := runBoth(t, a, "nop", nopSrc, 3, 128, 3*128, 0)
			warps := uint64(3 * 128 / Configure(a).WarpWidth)
			if res.Stats.ThreadInstrs != base.Stats.ThreadInstrs || res.Stats.IssueSlots != base.Stats.IssueSlots+warps {
				t.Errorf("with a nop: %d thread-instrs in %d issues, want %d in %d",
					res.Stats.ThreadInstrs, res.Stats.IssueSlots, base.Stats.ThreadInstrs, base.Stats.IssueSlots+warps)
			}
		})
	}
}

// earlyExitBarrierSrc: the threads of the block's upper half exit before
// the barrier the lower half meets, so on every warp width a whole warp
// is done when the barrier releases the others.
const earlyExitBarrierSrc = `
.shared 512
	mov  r1, %tid
	mov  r2, %ctaid
	mov  r3, %ntid
	imad r4, r2, r3, r1
	shl  r5, r4, 2
	mov  r6, %p0
	iadd r6, r6, r5
	isetp.ge r7, r1, 64
	bra  r7, early
	shl  r8, r1, 2
	imul r9, r1, 3
	st.s [r8], r9
	bar
	mov  r10, 63
	isub r10, r10, r1
	shl  r10, r10, 2
	ld.s r11, [r10]
	st.g [r6], r11
	exit
early:
	st.g [r6], r1
	exit
`

func TestWarpExitsBeforeBarrier(t *testing.T) {
	for _, a := range Architectures() {
		t.Run(a.String(), func(t *testing.T) {
			res := runBoth(t, a, "early-exit-barrier", earlyExitBarrierSrc, 2, 128, 2*128, 0)
			if res.Stats.BarrierWaits == 0 {
				t.Error("no warp met the barrier")
			}
		})
	}
}

// deepNestSrc sends the threads of each of 14 lane classes down their own
// path from back-to-back branches. Each path is a dependent
// chain, so even with SBI draining the secondary split a warp holds
// more live splits than HotContexts + ColdContexts, and each insertion finds
// the sideband sorter still busy with the previous one.
func deepNestSrc() string {
	const classes = 14
	var b strings.Builder
	b.WriteString(`
	mov  r1, %tid
	mov  r2, %ctaid
	mov  r3, %ntid
	imad r4, r2, r3, r1
	shl  r5, r4, 2
	mov  r6, %p0
	iadd r6, r6, r5
	and  r7, r1, 15
	mov  r8, 1000
`)
	for k := 0; k < classes; k++ {
		fmt.Fprintf(&b, "\tisetp.eq r%d, r7, %d\n", 10+k, k)
	}
	for k := 0; k < classes; k++ {
		fmt.Fprintf(&b, "\tbra  r%d, c%d\n", 10+k, k)
	}
	b.WriteString("\tbra  join\n")
	for k := 0; k < classes; k++ {
		fmt.Fprintf(&b, "c%d:\n\timul r8, r1, %d\n\timul r8, r8, 5\n\timul r8, r8, 7\n\tbra  join\n", k, 3+k)
	}
	b.WriteString("join:\n\tst.g [r6], r8\n\texit\n")
	return b.String()
}

func TestDeepNestingOverflowsCCT(t *testing.T) {
	src := deepNestSrc()
	for _, a := range Architectures() {
		t.Run(a.String(), func(t *testing.T) {
			st := runBoth(t, a, "deep-nest", src, 2, 128, 2*128, 0).Stats
			if a == ArchBaseline {
				return // the stack keeps no CCT
			}
			if limit := reconv.HotContexts + reconv.ColdContexts; st.MaxSplits <= limit {
				t.Errorf("MaxSplits %d, want past %d", st.MaxSplits, limit)
			}
			if st.CCTOverflows == 0 || st.DegradedInserts == 0 {
				t.Errorf("CCTOverflows %d, DegradedInserts %d: want both above 0", st.CCTOverflows, st.DegradedInserts)
			}
		})
	}
}

func TestZeroStats(t *testing.T) {
	var s Stats
	if s.IPC() != 0 || s.SecondaryShare() != 0 {
		t.Errorf("zero Stats: IPC %g, secondary share %g, want 0 and 0", s.IPC(), s.SecondaryShare())
	}
	if got := s.String(); !strings.HasPrefix(got, "cycles=0 ipc=0.00") {
		t.Errorf("zero Stats render as %q", got)
	}
}
