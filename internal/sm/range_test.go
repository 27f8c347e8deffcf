package sm

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/kernels"
)

// TestRunRangeCoversGrid: per-thread committed instruction counts are
// purely functional, so disjoint sub-range runs must sum to the
// whole-grid run, and their memory effects must compose to the same
// final image (Histogram CTAs write disjoint outputs).
func TestRunRangeCoversGrid(t *testing.T) {
	b, ok := kernels.ByName("Histogram")
	if !ok {
		t.Fatal("Histogram missing")
	}
	cfg := Configure(ArchSBISWI)

	whole, err := b.NewLaunch(true)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(cfg, whole)
	if err != nil {
		t.Fatal(err)
	}

	parts, err := b.NewLaunch(true)
	if err != nil {
		t.Fatal(err)
	}
	mid := parts.GridDim / 2
	var sum Stats
	for _, r := range [][2]int{{0, mid}, {mid, parts.GridDim}} {
		res, err := RunRangeOpts(context.Background(), cfg, parts, r[0], r[1], RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		sum.Merge(&res.Stats)
	}
	if sum.ThreadInstrs != full.Stats.ThreadInstrs {
		t.Errorf("sub-range ThreadInstrs %d != whole-grid %d", sum.ThreadInstrs, full.Stats.ThreadInstrs)
	}
	if sum.BlocksRun != full.Stats.BlocksRun {
		t.Errorf("sub-range BlocksRun %d != whole-grid %d", sum.BlocksRun, full.Stats.BlocksRun)
	}
	if !reflect.DeepEqual(parts.Global, whole.Global) {
		t.Error("sequential sub-range runs produced a different memory image")
	}
}

// TestRunRangeSeesFullGrid: %ncta must report the launch grid even
// for a sub-range run, keeping kernels position-independent.
func TestRunRangeSeesFullGrid(t *testing.T) {
	prog := assembleFor(t, "ncta", `
	mov  r1, %ncta
	mov  r2, %ctaid
	shl  r2, r2, 2
	mov  r3, %p0
	iadd r3, r3, r2
	st.g [r3], r1
	exit
`, ArchSBISWI)
	l := &exec.Launch{Prog: prog, GridDim: 6, BlockDim: 1, Global: make([]byte, 6*4)}
	cfg := Configure(ArchSBISWI)
	if _, err := RunRangeOpts(context.Background(), cfg, l, 4, 6, RunOpts{}); err != nil {
		t.Fatal(err)
	}
	for _, cta := range []int{4, 5} {
		got := uint32(l.Global[cta*4]) | uint32(l.Global[cta*4+1])<<8
		if got != 6 {
			t.Errorf("cta %d saw %%nctaid = %d, want 6", cta, got)
		}
	}
}

func TestRunRangeValidation(t *testing.T) {
	b, ok := kernels.ByName("Histogram")
	if !ok {
		t.Fatal("Histogram missing")
	}
	l, err := b.NewLaunch(true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Configure(ArchSBISWI)
	for _, r := range [][2]int{{-1, 2}, {0, l.GridDim + 1}, {3, 3}, {4, 2}} {
		if _, err := RunRangeOpts(context.Background(), cfg, l, r[0], r[1], RunOpts{}); err == nil {
			t.Errorf("range %v must be rejected", r)
		}
	}
}

func TestRunRangeCancellation(t *testing.T) {
	prog := assembleFor(t, "spin", `
	mov  r1, 0
	mov  r2, 500000
loop:
	iadd r1, r1, 1
	isetp.lt r3, r1, r2
	bra  r3, loop
	exit
`, ArchSBISWI)
	l := &exec.Launch{Prog: prog, GridDim: 16, BlockDim: 256}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunRangeOpts(ctx, Configure(ArchSBISWI), l, 0, l.GridDim, RunOpts{}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
