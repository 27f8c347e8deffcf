package reconv

import "testing"

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
