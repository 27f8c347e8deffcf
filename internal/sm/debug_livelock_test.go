package sm

import (
	"errors"
	"regexp"
	"strconv"
	"testing"
)

// Reproduces the constraints-off barrier interaction on a LUD-shaped
// kernel: run-ahead splits park at the next barrier and must still
// merge and release. Guards against the livelock found during
// development.
const runAheadBarrierSrc = `
	mov  r1, %tid
	mov  r5, %p1
	mov  r6, 0.0
	mov  r7, 0
	and  r8, r1, 31
step:
	bar
	isetp.lt r9, r8, r7
	bra  r9, inactive
	shl  r10, r7, 2
	iadd r10, r5, r10
	ld.g r11, [r10]
	fmad r6, r6, 0.99, r11
inactive:
	iadd r7, r7, 1
	isetp.lt r12, r7, 32
	bra  r12, step
	mov  r13, %p0
	shl  r14, r1, 2
	iadd r13, r13, r14
	st.g [r13], r6
	exit
`

func TestRunAheadBarrierNoLivelock(t *testing.T) {
	c := Configure(ArchSBI)
	c.Constraints = false
	c.MaxCycles = 200000
	p := assembleFor(t, "ludlike", runAheadBarrierSrc, ArchSBI)
	l := newLaunch(p, 2, 256, 2*256+64, 0, uint32(2*256*4))
	if _, err := Run(c, l); err != nil {
		t.Fatal(err)
	}
}

// TestLivelockDumpNamesSleepers cuts the same kernel off mid-run: the
// livelock report must say, for every warp the front-end would schedule,
// which unit it needs and whether the walk is probing it or it sleeps —
// and until when.
func TestLivelockDumpNamesSleepers(t *testing.T) {
	c := Configure(ArchSBI)
	c.Constraints = false
	c.MaxCycles = 300
	p := assembleFor(t, "ludlike", runAheadBarrierSrc, ArchSBI)
	_, err := Run(c, newLaunch(p, 2, 256, 2*256+64, 0, uint32(2*256*4)))
	var le *LivelockError
	if !errors.As(err, &le) {
		t.Fatalf("run of %d cycles: %v, want a LivelockError", c.MaxCycles, err)
	}
	asleep := regexp.MustCompile(`warp \d+ .*ready\{unit=(MAD|SFU|LSU|CTRL) hazT=\d+ structT=\S+ asleep until (\d+)\}`)
	m := asleep.FindStringSubmatch(le.State)
	if m == nil {
		t.Fatalf("no sleeper named in the dump:\n%s", le.State)
	}
	if until, _ := strconv.ParseInt(m[2], 10, 64); until < le.Cycle {
		t.Errorf("dump at cycle %d names a sleeper due at %d, which the walk should have woken:\n%s", le.Cycle, until, le.State)
	}
}
