package reconv

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/statcheck"
)

func TestHeapInitial(t *testing.T) {
	h := NewHeap(0xFF, 8)
	c := h.Slot(0)
	if c == nil || c.PC != 0 || c.Mask != 0xFF {
		t.Fatalf("slot0 = %+v", c)
	}
	if h.Slot(1) != nil {
		t.Error("slot1 should be empty")
	}
	if h.Splits() != 1 || h.Done() {
		t.Error("initial state wrong")
	}
}

func TestHeapDivergeSortsByPC(t *testing.T) {
	h := NewHeap(0xF, 8)
	// Branch at 0: taken (0x3) to 10, fallthrough at 1.
	h.Diverge(0, 10, 1, 0x3, 0)
	pc1, pc2 := h.Slot(0).PC, h.Slot(1).PC
	if pc1 != 1 || pc2 != 10 {
		t.Fatalf("CPCs = %d, %d; want 1, 10", pc1, pc2)
	}
	if h.Slot(0).Mask != 0xC || h.Slot(1).Mask != 0x3 {
		t.Errorf("masks = %#x %#x", h.Slot(0).Mask, h.Slot(1).Mask)
	}
	if h.Splits() != 2 {
		t.Errorf("splits = %d", h.Splits())
	}
}

func TestHeapMergeOnEqualPC(t *testing.T) {
	h := NewHeap(0xF, 8)
	h.Diverge(0, 10, 1, 0x3, 0)
	// Primary (pc 1, mask 0xC) advances to 10 -> merge.
	h.Advance(0, 10, 1)
	if h.Splits() != 1 {
		t.Fatalf("splits = %d, want 1 after merge", h.Splits())
	}
	c := h.Slot(0)
	if c.PC != 10 || c.Mask != 0xF {
		t.Errorf("merged = %+v", c)
	}
	if h.Stats.Merges != 1 {
		t.Errorf("merges = %d", h.Stats.Merges)
	}
}

func TestHeapThreeWaySplitsUseCCT(t *testing.T) {
	h := NewHeap(0xF, 8)
	h.Diverge(0, 10, 1, 0x3, 0) // hot: (1, 0xC), (10, 0x3)
	// Primary diverges again at pc 1: thread 2 to pc 20, thread 3 falls to 2.
	h.Diverge(0, 20, 2, 0x4, 1) // contexts: (2,0x8) (10,0x3) (20,0x4)
	if h.Splits() != 3 {
		t.Fatalf("splits = %d", h.Splits())
	}
	pc1, pc2 := h.Slot(0).PC, h.Slot(1).PC
	if pc1 != 2 || pc2 != 10 {
		t.Fatalf("CPCs = %d,%d; want 2,10", pc1, pc2)
	}
	// CPC3 (20) must be in the CCT; bringing CPC1 forward past CPC2
	// must promote it.
	h.Advance(0, 30, 2) // (30,0x8): hot should now be (10,0x3),(20,0x4)
	pc1, pc2 = h.Slot(0).PC, h.Slot(1).PC
	if pc1 != 10 || pc2 != 20 {
		t.Fatalf("after advance: CPCs = %d,%d; want 10,20", pc1, pc2)
	}
}

func TestHeapMinPCInvariant(t *testing.T) {
	h := NewHeap(0xFF, 8)
	h.Diverge(0, 100, 1, 0x0F, 0)
	h.Diverge(0, 50, 2, 0x03, 1)
	h.Diverge(0, 25, 3, 0x01, 2)
	// Live PCs: 3 (0x2), 25 (0x1), 50 (0x3... wait masks: initial 0xFF.
	// After step1: (1,0xF0),(100,0x0F). step2 splits slot0: (2,0xC... )
	// Regardless of exact masks, slot0 must hold the global min PC.
	pc1 := h.Slot(0).PC
	for slot := 1; slot < HotContexts; slot++ {
		if c := h.Slot(slot); c != nil && c.PC < pc1 {
			t.Errorf("slot %d PC %d < CPC1 %d", slot, c.PC, pc1)
		}
	}
	for _, c := range h.cct {
		if c.Mask&h.alive != 0 && c.PC < pc1 {
			t.Errorf("CCT PC %d < CPC1 %d", c.PC, pc1)
		}
	}
}

func TestHeapExit(t *testing.T) {
	h := NewHeap(0xF, 8)
	h.Diverge(0, 10, 1, 0x3, 0)
	h.Exit(1, 1) // taken split (threads 0,1) exits
	if h.Alive() != 0xC {
		t.Errorf("alive = %#x", h.Alive())
	}
	if h.Splits() != 1 {
		t.Errorf("splits = %d", h.Splits())
	}
	h.Exit(0, 2)
	if !h.Done() {
		t.Error("heap should be done")
	}
}

func TestHeapSyncBlocked(t *testing.T) {
	h := NewHeap(0xF, 8)
	// Divergence at pc 5: primary at 6 (mask 0xC), secondary at 20 (0x3).
	h.Diverge(5, 20, 6, 0x3, 0)
	// Secondary reached a SYNC at pc 20 whose PCdiv = 5.
	h.Wait(1, 5)
	if !h.SyncBlocked(1) {
		t.Error("secondary should be blocked: primary at 6 in [5,20)")
	}
	if h.Eligible(1) {
		t.Error("blocked split must not be eligible")
	}
	if !h.Eligible(0) {
		t.Error("primary must stay eligible")
	}
	// Primary leaves the region (jumps past the sync): secondary wakes.
	h.Advance(0, 25, 1)
	// After resort, the old secondary (pc 20) is now the primary.
	if pc1 := h.Slot(0).PC; pc1 != 20 {
		t.Fatalf("CPC1 = %d, want 20", pc1)
	}
	if h.SyncBlocked(0) {
		t.Error("split at 20 should wake: other split at 25 is outside [5,20)")
	}
	if !h.Eligible(0) {
		t.Error("woken split must be eligible")
	}
}

func TestHeapSyncReleaseByMerge(t *testing.T) {
	h := NewHeap(0xF, 8)
	h.Diverge(5, 20, 6, 0x3, 0)
	h.Wait(1, 5)
	// Primary walks to the sync PC: contexts merge; merged context must
	// not inherit the wait state.
	h.Advance(0, 20, 1)
	c := h.Slot(0)
	if c == nil || c.Mask != 0xF || c.PC != 20 {
		t.Fatalf("merged = %+v", c)
	}
	if c.WaitDiv != -1 {
		t.Error("merge must clear WaitDiv")
	}
	if !h.Eligible(0) {
		t.Error("merged split must be eligible")
	}
}

func TestHeapOuterBlockRunsFree(t *testing.T) {
	// Paper Figure 4 case 2: the secondary split is at the inner
	// reconvergence point F with PCdiv = end of C; the primary is in B,
	// BEFORE the divergence point. Execution may continue.
	h := NewHeap(0xF, 8)
	// Outer divergence at 2: B starts at 3 (mask 0xC), C at 10 (0x3).
	h.Diverge(2, 10, 3, 0x3, 0)
	// Inner divergence at 12 (in C): D at 13 (0x1), E at 20 (0x2).
	h.Diverge(12, 20, 13, 0x2, 1)
	// The D split reaches F at 25 (sync with PCdiv=12) while E still in 20.
	// Find slot of PC 13 after resort: slots sorted -> (3,0xC) primary,
	// (13,0x1) secondary, (20,0x2) in CCT.
	if pc2 := h.Slot(1).PC; pc2 != 13 {
		t.Fatalf("CPC2 = %d", pc2)
	}
	h.Advance(1, 25, 2) // D reaches F
	// Now contexts: (3,0xC), (20,0x2), (25,0x1). Slot1 is 20.
	// The split at 25 is in the CCT or hot depending on ordering; make
	// E reach F too.
	// First check blocking for the F split if it were scheduled: find it.
	// E (pc 20) advances to 25: merge with D's split.
	if pc2 := h.Slot(1).PC; pc2 != 20 {
		t.Fatalf("CPC2 = %d, want 20", pc2)
	}
	h.Advance(1, 25, 3)
	// Contexts: (3,0xC) and (25,0x3).
	if h.Splits() != 2 {
		t.Fatalf("splits = %d", h.Splits())
	}
	// F split waits on sync with PCdiv = 12 (inner divergence): primary
	// at 3 is OUTSIDE [12,25) -> not blocked (outer branch B and inner
	// reconvergence F run in parallel).
	h.Wait(1, 12)
	if h.SyncBlocked(1) {
		t.Error("F must not wait for B: primary PC 3 < PCdiv 12")
	}
}

func TestHeapPark(t *testing.T) {
	h := NewHeap(0xF, 8)
	h.Diverge(0, 10, 1, 0x3, 0)
	h.Park(0) // partial split at barrier
	if h.Eligible(0) {
		t.Error("parked partial split must not be eligible")
	}
	// The other threads exit: the parked split now holds all live
	// threads and wakes.
	h.Exit(1, 1)
	if !h.Eligible(0) {
		t.Error("parked split should wake when it holds all live threads")
	}
}

func TestHeapDegradedSorter(t *testing.T) {
	h := NewHeap(0xFF, 8)
	// Create many splits in the same cycle: the sideband sorter can only
	// absorb the first; later ones land unsorted (degraded mode).
	h.Diverge(0, 100, 1, 0x80, 0)
	h.Diverge(0, 90, 2, 0x40, 0)
	h.Diverge(0, 80, 3, 0x20, 0)
	h.Diverge(0, 70, 4, 0x10, 0)
	if h.Stats.DegradedInser == 0 {
		t.Error("expected degraded insertions under same-cycle pressure")
	}
	// Correctness: all threads still tracked exactly once.
	var union uint64
	total := 0
	for i := 0; i < HotContexts; i++ {
		if c := h.Slot(i); c != nil {
			union |= c.Mask
			total += bits.OnesCount64(c.Mask)
		}
	}
	for _, c := range h.cct {
		union |= c.Mask & h.alive
		total += bits.OnesCount64(c.Mask & h.alive)
	}
	if union != 0xFF || total != 8 {
		t.Errorf("threads lost or duplicated: union %#x count %d", union, total)
	}
}

func TestHeapCCTOverflow(t *testing.T) {
	h := NewHeap(0xFFFF, 2) // tiny CCT
	pcs := []int{100, 90, 80, 70, 60, 50}
	for i, pc := range pcs {
		h.Diverge(0, pc, i+1, 1<<uint(15-i), int64(i*100))
	}
	if h.Stats.CCTOverflows == 0 {
		t.Error("expected CCT overflow")
	}
	// All threads still present.
	var union uint64
	for i := 0; i < HotContexts; i++ {
		if c := h.Slot(i); c != nil {
			union |= c.Mask
		}
	}
	for _, c := range h.cct {
		union |= c.Mask & h.alive
	}
	if union != 0xFFFF {
		t.Errorf("union = %#x", union)
	}
}

// heapOracle replays a random operation sequence and checks structural
// invariants: all live threads appear in exactly one context, CPC1 is
// the global minimum, and eligibility never panics.
func TestQuickHeapInvariants(t *testing.T) {
	f := func(ops []uint16, width uint8) bool {
		w := 8 + int(width%57) // 8..64
		full := uint64(1)<<uint(w) - 1
		if w == 64 {
			full = ^uint64(0)
		}
		h := NewHeap(full, 8)
		now := int64(0)
		for _, op := range ops {
			now++
			slot := int(op>>14) % HotContexts
			c := h.Slot(slot)
			if c == nil {
				slot = 0
				c = h.Slot(0)
				if c == nil {
					break
				}
			}
			pc := c.PC
			switch op % 4 {
			case 0: // advance
				h.Advance(slot, pc+1+int(op%7), now)
			case 1: // diverge
				sub := c.Mask & h.alive & (0x5555555555555555 << uint(op%3))
				if sub == 0 || sub == c.Mask&h.alive {
					h.Advance(slot, pc+1, now)
				} else {
					h.Diverge(pc, pc+2+int(op%5), pc+1, sub, now)
				}
			case 2: // exit
				h.Exit(slot, now)
			case 3: // jump far (loop-like)
				h.Advance(slot, int(op%97), now)
			}
			// Invariants.
			var union uint64
			count := 0
			minPC := int(^uint(0) >> 1)
			for i := 0; i < HotContexts; i++ {
				if cc := h.Slot(i); cc != nil {
					if union&cc.Mask != 0 {
						return false // overlap
					}
					union |= cc.Mask
					count += bits.OnesCount64(cc.Mask)
					if cc.PC < minPC {
						minPC = cc.PC
					}
				}
			}
			for _, cc := range h.cct {
				m := cc.Mask & h.alive
				if m == 0 {
					continue
				}
				if union&m != 0 {
					return false
				}
				union |= m
				count += bits.OnesCount64(m)
				if cc.PC < minPC {
					minPC = cc.PC
				}
			}
			if union != h.Alive() {
				return false
			}
			if c0 := h.Slot(0); c0 != nil && c0.PC != minPC {
				return false // CPC1 must be the global minimum
			}
			if h.Done() {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// advanceRebuilt is Advance as it was before the in-order path: the
// move, then a full rebuild.
func advanceRebuilt(h *Heap, slot, nextPC int, now int64) {
	c := h.Slot(slot)
	if c == nil {
		return
	}
	c.PC, c.WaitDiv, c.Parked = nextPC, -1, false
	h.rebuild(now, false)
}

// sameHeap compares everything two heaps hold but the CCT's spare
// capacity.
func sameHeap(a, b *Heap) bool {
	return a.hot == b.hot && a.hotValid == b.hotValid && slices.Equal(a.cct, b.cct) &&
		a.cctCap == b.cctCap && a.sorterFreeAt == b.sorterFreeAt && a.alive == b.alive && a.Stats == b.Stats
}

// TestAdvanceInOrderEqualsRebuild drives seeded random operation
// sequences through two heaps, one advancing in place where Advance
// allows it and one rebuilding on every advance, and requires them to
// stay indistinguishable after every operation — slots, CCT, slot
// masks, statistics, eligibility. An advance that reports the layout
// kept must have left the slot masks alone, and one that re-laid it
// must return the masks from before: the dependency-matrix scoreboard
// skips its transition on the first and composes it from the second.
func TestAdvanceInOrderEqualsRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	inPlace := 0
	for seq := 0; seq < 5000; seq++ {
		width := 8 + rng.Intn(57)
		full := ^uint64(0) >> uint(64-width)
		fast, ref := NewHeap(full, 1+rng.Intn(8)), new(Heap)
		ref.Reset(full, fast.cctCap)
		for now := int64(1); now <= 40 && !fast.Done(); now++ {
			slot := rng.Intn(HotContexts)
			c := fast.Slot(slot)
			if c == nil {
				slot, c = 0, fast.Slot(0)
			}
			pc, mask := c.PC, c.Mask
			switch op := rng.Intn(10); {
			case op < 5: // mostly straight-line, sometimes a jump either way
				next := pc + 1
				if rng.Intn(4) == 0 {
					next = rng.Intn(24)
				}
				before := fast.SlotMasks()
				pre, relaid := fast.Advance(slot, next, now)
				advanceRebuilt(ref, slot, next, now)
				if !relaid {
					inPlace++
					pre = fast.SlotMasks()
				}
				if pre != before {
					t.Fatalf("seq %d cycle %d: Advance(%d, %d) relaid=%v with masks %x, before it %x", seq, now, slot, next, relaid, pre, before)
				}
			case op < 7:
				taken, target := mask&rng.Uint64(), pc+2+rng.Intn(5)
				fast.Diverge(pc, target, pc+1, taken, now)
				ref.Diverge(pc, target, pc+1, taken, now)
			case op == 7:
				fast.Exit(slot, now)
				ref.Exit(slot, now)
			case op == 8:
				div := rng.Intn(pc + 1)
				fast.Wait(slot, div)
				ref.Wait(slot, div)
			default:
				fast.Park(slot)
				ref.Park(slot)
			}
			if !sameHeap(fast, ref) || fast.SlotMasks() != ref.SlotMasks() {
				t.Fatalf("seq %d cycle %d: heaps diverged:\n in-order %+v\n rebuilt  %+v", seq, now, *fast, *ref)
			}
			for i := 0; i < HotContexts; i++ {
				if fast.Eligible(i) != ref.Eligible(i) || fast.Suspended(i) != ref.Suspended(i) {
					t.Fatalf("seq %d cycle %d: slot %d eligible/suspended differ", seq, now, i)
				}
			}
		}
	}
	if inPlace == 0 {
		t.Error("no advance took the in-order path")
	}
}

// TestHeapResetEqualsNew is the sorted heap's row of the Reset ≡ New law
// (statcheck.CheckReset), over warps of several widths and CCT
// capacities. A use runs seeded advances, divergences, exits, waits and
// parks and observes the slot masks, the split count and each hot
// slot's eligibility after each, and the counters; abandoned, it leaves
// contexts in the CCT.
func TestHeapResetEqualsNew(t *testing.T) {
	type shape struct {
		mask   uint64
		cctCap int
	}
	use := func(h *Heap, _ shape, seed uint64, abandon bool) any {
		rng := rand.New(rand.NewSource(int64(seed)))
		var obs []any
		for now := int64(1); now <= 40 && !h.Done() && !(abandon && now == 15); now++ {
			slot := rng.Intn(HotContexts)
			c := h.Slot(slot)
			if c == nil {
				slot, c = 0, h.Slot(0)
			}
			switch op := rng.Intn(10); {
			case op < 3:
				h.Advance(slot, c.PC+1+rng.Intn(3), now)
			case op < 7:
				h.Diverge(c.PC, c.PC+2+rng.Intn(5), c.PC+1, c.Mask&rng.Uint64(), now)
			case op == 7:
				h.Exit(slot, now)
			case op == 8:
				h.Wait(slot, rng.Intn(c.PC+1))
			default:
				h.Park(slot)
			}
			obs = append(obs, h.SlotMasks(), h.Splits(), h.Eligible(0), h.Eligible(1))
		}
		return []any{obs, h.Stats}
	}
	for _, p := range statcheck.CheckReset(statcheck.ResetRow[Heap, shape]{
		Fresh:   func(c shape, seed uint64) any { return use(NewHeap(c.mask, c.cctCap), c, seed, false) },
		Reset:   func(h *Heap, c shape) error { h.Reset(c.mask, c.cctCap); return nil },
		Use:     use,
		Configs: []shape{{0xFFFF, ColdContexts}, {^uint64(0), 1}, {0x3, 2}, {0xF0F0F0F0, ColdContexts}},
	}) {
		t.Error(p)
	}
}
