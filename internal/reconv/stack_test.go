package reconv

import (
	"math/rand"
	"testing"

	"repro/internal/statcheck"
)

func TestStackStraightLine(t *testing.T) {
	s := NewStack(0xF)
	pc, mask, ok := s.Active()
	if !ok || pc != 0 || mask != 0xF {
		t.Fatalf("initial = %d %#x %v", pc, mask, ok)
	}
	s.Advance()
	pc, _, _ = s.Active()
	if pc != 1 {
		t.Errorf("pc = %d", pc)
	}
	s.Jump(10)
	pc, _, _ = s.Active()
	if pc != 10 {
		t.Errorf("pc after jump = %d", pc)
	}
}

func TestStackDivergeReconverge(t *testing.T) {
	s := NewStack(0xF)
	// Branch at pc 0: threads 0,1 taken to 5; reconverge at 8.
	s.Diverge(0, 5, 8, 0x3)
	if len(s.entries) != 3 {
		t.Fatalf("depth = %d", len(s.entries))
	}
	// Taken path runs first.
	pc, mask, _ := s.Active()
	if pc != 5 || mask != 0x3 {
		t.Fatalf("taken path = %d %#x", pc, mask)
	}
	s.Advance() // 6
	s.Advance() // 7
	s.Advance() // 8 == recPC -> pop
	pc, mask, _ = s.Active()
	if pc != 1 || mask != 0xC {
		t.Fatalf("fallthrough path = %d %#x", pc, mask)
	}
	for i := 0; i < 7; i++ {
		s.Advance()
	}
	// Reached 8 -> pop to reconvergence entry.
	pc, mask, _ = s.Active()
	if pc != 8 || mask != 0xF {
		t.Fatalf("reconverged = %d %#x", pc, mask)
	}
	if len(s.entries) != 1 {
		t.Errorf("depth = %d", len(s.entries))
	}
	if s.MaxDepth() != 3 {
		t.Errorf("max depth = %d", s.MaxDepth())
	}
}

func TestStackPathAtReconvergenceNotPushed(t *testing.T) {
	s := NewStack(0xF)
	// if-without-else: taken jumps straight to the reconvergence point.
	s.Diverge(0, 8, 8, 0x3)
	if len(s.entries) != 2 {
		t.Fatalf("depth = %d", len(s.entries))
	}
	pc, mask, _ := s.Active()
	if pc != 1 || mask != 0xC {
		t.Fatalf("active = %d %#x, want fallthrough", pc, mask)
	}
	for i := 0; i < 7; i++ {
		s.Advance()
	}
	pc, mask, _ = s.Active()
	if pc != 8 || mask != 0xF {
		t.Fatalf("reconverged = %d %#x", pc, mask)
	}
}

func TestStackExit(t *testing.T) {
	s := NewStack(0xF)
	s.Diverge(0, 5, 8, 0x3)
	// Taken path (threads 0,1) exits.
	_, mask, _ := s.Active()
	s.Exit(mask)
	pc, mask, ok := s.Active()
	if !ok || pc != 1 || mask != 0xC {
		t.Fatalf("after exit = %d %#x %v", pc, mask, ok)
	}
	s.Exit(mask)
	if !s.Done() {
		t.Error("stack should be done")
	}
	if _, _, ok := s.Active(); ok {
		t.Error("Active after done")
	}
}

func TestStackAllTakenNoDivergence(t *testing.T) {
	s := NewStack(0xF)
	// Uniform branch handled by Jump, not Diverge; but Diverge with the
	// full mask taken must still behave (empty fallthrough entry is
	// pushed but immediately skipped).
	s.Diverge(0, 5, 8, 0xF)
	pc, mask, _ := s.Active()
	if pc != 5 || mask != 0xF {
		t.Fatalf("active = %d %#x", pc, mask)
	}
}

// TestStackResetEqualsNew is the reconvergence stack's row of the
// Reset ≡ New law (statcheck.CheckReset), over warps of several widths
// and thread masks. A use runs seeded advances, jumps, divergences and
// exits and observes the active PC and mask after each, the threads
// alive and the high-water mark; abandoned, it leaves entries pushed.
func TestStackResetEqualsNew(t *testing.T) {
	use := func(s *Stack, _ uint64, seed uint64, abandon bool) any {
		rng := rand.New(rand.NewSource(int64(seed)))
		var obs []uint64
		for i := 0; i < 40 && !(abandon && i == 15); i++ {
			pc, mask, ok := s.Active()
			if !ok {
				break
			}
			obs = append(obs, uint64(pc), mask)
			switch rng.Intn(5) {
			case 0:
				s.Advance()
			case 1:
				s.Jump(pc + rng.Intn(4))
			case 2, 3:
				s.Diverge(pc, pc+2+rng.Intn(6), pc+3+rng.Intn(10), mask&rng.Uint64())
			default:
				s.Exit(mask & rng.Uint64() & rng.Uint64())
			}
		}
		return []any{obs, s.Alive(), s.MaxDepth()}
	}
	for _, p := range statcheck.CheckReset(statcheck.ResetRow[Stack, uint64]{
		Fresh:   func(mask uint64, seed uint64) any { return use(NewStack(mask), mask, seed, false) },
		Reset:   func(s *Stack, mask uint64) error { s.Reset(mask); return nil },
		Use:     use,
		Configs: []uint64{0xFFFFFFFF, ^uint64(0), 1, 0xF0F0},
	}) {
		t.Error(p)
	}
}
