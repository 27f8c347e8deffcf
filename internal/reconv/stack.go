// Package reconv implements the two thread-reconvergence mechanisms the
// paper contrasts:
//
//   - Stack: the baseline per-warp reconvergence stack used by Tesla- and
//     Fermi-class GPUs (pushed on divergence with the branch's
//     reconvergence PC, popped when execution reaches it).
//   - Heap: the thread-frontier sorted heap of warp-split contexts
//     (Diamos et al., adopted by the paper in §3.4), organized as a Hot
//     Context Table holding the two minimal-PC contexts of each warp and
//     a Cold Context Table holding the rest, kept sorted by a sideband
//     sorter of bounded throughput that degrades to stack (LIFO) order
//     under pressure.
//
// Both structures track only control state (PCs and activity masks);
// data state lives in the simulator's register files.
package reconv

// StackEntry is one level of the baseline reconvergence stack.
type StackEntry struct {
	PC    int
	Mask  uint64
	RecPC int // pop when PC reaches RecPC; -1 = never
}

// Stack is the baseline per-warp divergence stack.
type Stack struct {
	entries  []StackEntry
	alive    uint64
	valid    uint64
	maxDepth int
}

// NewStack creates a stack for a warp whose valid threads are mask.
func NewStack(mask uint64) *Stack {
	s := new(Stack)
	s.Reset(mask)
	return s
}

// Reset makes s the stack NewStack builds — one entry at PC 0 holding
// mask — keeping the entries' storage (a warp context's stack is reset
// for every block it hosts).
func (s *Stack) Reset(mask uint64) {
	*s = Stack{
		entries: append(s.entries[:0], StackEntry{PC: 0, Mask: mask, RecPC: -1}),
		alive:   mask,
		valid:   mask,
	}
}

// Alive returns the mask of threads that have not exited.
func (s *Stack) Alive() uint64 { return s.alive }

// MaxDepth returns the stack's high-water mark.
func (s *Stack) MaxDepth() int { return s.maxDepth }

// Done reports whether all threads have exited.
func (s *Stack) Done() bool { return s.top() == nil }

// top pops exhausted entries and returns the live TOS, or nil.
func (s *Stack) top() *StackEntry {
	for len(s.entries) > 0 {
		e := &s.entries[len(s.entries)-1]
		if e.Mask&s.alive != 0 {
			return e
		}
		s.entries = s.entries[:len(s.entries)-1]
	}
	return nil
}

// Active returns the schedulable PC and effective mask.
func (s *Stack) Active() (pc int, mask uint64, ok bool) {
	e := s.top()
	if e == nil {
		return 0, 0, false
	}
	return e.PC, e.Mask & s.alive, true
}

// Advance moves the TOS to the next sequential PC, popping at the
// reconvergence point.
func (s *Stack) Advance() {
	s.top().PC++
	s.popAtRec()
}

// Jump redirects the TOS (uniform branch). Jumping exactly onto the
// entry's reconvergence point pops it, like advancing into it — the
// common shape of an if/else whose then-path ends in "bra join".
func (s *Stack) Jump(pc int) {
	s.top().PC = pc
	s.popAtRec()
}

// popAtRec pops every TOS entry sitting at its own reconvergence point.
// The loop handles nested regions that share a reconvergence PC.
func (s *Stack) popAtRec() {
	for len(s.entries) > 0 {
		e := &s.entries[len(s.entries)-1]
		if e.RecPC < 0 || e.PC != e.RecPC {
			return
		}
		s.entries = s.entries[:len(s.entries)-1]
	}
}

// Diverge splits the TOS at a divergent branch located at pc: threads in
// taken go to target, the rest fall through, and both reconverge at
// recPC. Paths that would start at recPC are not pushed (their threads
// wait in the reconvergence entry).
func (s *Stack) Diverge(pc, target, recPC int, taken uint64) {
	e := s.top()
	eff := e.Mask & s.alive
	ntaken := eff &^ taken
	e.PC = recPC
	if pc+1 != recPC {
		s.entries = append(s.entries, StackEntry{PC: pc + 1, Mask: ntaken, RecPC: recPC})
	}
	if target != recPC {
		s.entries = append(s.entries, StackEntry{PC: target, Mask: taken, RecPC: recPC})
	}
	if len(s.entries) > s.maxDepth {
		s.maxDepth = len(s.entries)
	}
	s.top()
	s.popAtRec()
}

// Exit retires the given threads. They disappear from every entry.
func (s *Stack) Exit(mask uint64) {
	s.alive &^= mask
	s.top()
}
