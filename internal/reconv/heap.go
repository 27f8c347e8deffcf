package reconv

import "fmt"

// Context is one warp-split: a program counter and the set of threads
// following it, plus scheduling state used by the selective
// synchronization barrier (§3.3) and partial-barrier parking.
type Context struct {
	PC   int
	Mask uint64

	// WaitDiv is the PCdiv payload of a SYNC this split attempted while
	// other splits were still inside [PCdiv, PC); -1 when not waiting.
	// The wait condition is re-evaluated dynamically, so the split wakes
	// as soon as the region empties or a merge absorbs it.
	WaitDiv int

	// Parked marks a split that reached a block barrier with only part
	// of the warp's live threads; it becomes schedulable again when it
	// holds all live threads (merges or thread exits).
	Parked bool

	// LastIssue is the cycle this split last issued an instruction, the
	// front-end's oldest-first age. Merges keep the most recent of the
	// two.
	LastIssue int64
}

// HotContexts and ColdContexts are the HCT and CCT entries per warp:
// the paper's HCT stores two active contexts, and its conservative CCT
// sizing holds eight. ColdContexts bounds nothing in this model, only
// the CCTOverflows statistic.
const HotContexts, ColdContexts = 2, 8

// HeapStats counts sorted-heap events.
type HeapStats struct {
	MaxSplits     int    // peak live warp-split count
	Merges        uint64 // context merges (reconvergences)
	Divergences   uint64
	DegradedInser uint64 // CCT insertions the sideband sorter could not absorb
	CCTOverflows  uint64 // insertions beyond the CCT capacity
}

// Heap is the per-warp dual context table of the thread-frontier design:
// a Hot Context Table holding the two minimal-PC contexts (the primary
// and secondary warp-splits scheduled by SBI) and a Cold Context Table
// holding the rest, sorted ascending by PC.
//
// Departure from the hardware proposal: the
// paper's sideband sorter has bounded throughput and degrades the CCT to
// LIFO order under pressure; the paper notes the order affects only
// reconvergence quality, never correctness, and that real programs
// rarely exceed 3 contexts (§3.4). This model keeps the heap perfectly
// sorted at all times and instead *counts* the insertions a real
// sideband sorter would have had to defer (DegradedInser) and the
// insertions beyond the configured CCT capacity (CCTOverflows), so
// experiments can report how far a concrete implementation would stray.
type Heap struct {
	hot      [HotContexts]Context
	hotValid [HotContexts]bool

	cct    []Context // sorted ascending by PC
	cctCap int

	sorterFreeAt int64

	alive uint64

	Stats HeapStats
}

// NewHeap creates a heap for a warp whose valid threads are mask. cctCap
// is the Cold Context Table capacity the overflow statistic counts
// against (ColdContexts in the SM model).
func NewHeap(mask uint64, cctCap int) *Heap {
	h := new(Heap)
	h.Reset(mask, cctCap)
	return h
}

// Reset makes h the heap NewHeap builds — one context at PC 0 holding
// mask — keeping the CCT's storage (a warp context's heap is reset for
// every block it hosts).
func (h *Heap) Reset(mask uint64, cctCap int) {
	*h = Heap{cct: h.cct[:0], cctCap: cctCap, alive: mask}
	h.hot[0] = Context{PC: 0, Mask: mask, WaitDiv: -1, LastIssue: -1}
	h.hotValid[0] = true
	h.Stats.MaxSplits = 1
}

// Alive returns the mask of threads that have not exited.
func (h *Heap) Alive() uint64 { return h.alive }

// Done reports whether all threads have exited.
func (h *Heap) Done() bool { return h.alive == 0 }

// Splits returns the number of live warp-splits.
func (h *Heap) Splits() int {
	n := 0
	for i := range h.hot {
		if h.hotValid[i] {
			n++
		}
	}
	return n + len(h.cct)
}

// Slot returns the hot context in slot i (0 = primary, 1 = secondary),
// or nil if that slot is empty. The returned pointer stays valid until
// the next mutating call.
func (h *Heap) Slot(i int) *Context {
	if i < 0 || i >= HotContexts || !h.hotValid[i] {
		return nil
	}
	return &h.hot[i]
}

// SlotMasks returns the thread masks of the primary split, the secondary
// split and the remaining (cold) contexts. The triple drives the
// dependency-matrix scoreboard's transition matrices (§3.4): matrix row
// and column i correspond to return value i.
func (h *Heap) SlotMasks() [3]uint64 {
	var m [3]uint64
	for i := range h.hot {
		if h.hotValid[i] {
			m[i] = h.hot[i].Mask
		}
	}
	m[2] = h.alive &^ m[0] &^ m[1]
	return m
}

// minOtherPC returns the minimum PC over all live splits except the one
// in hot slot `slot`; ok is false when no other split exists. That is
// the other hot split: the hot slots hold the two minimum PCs, and the
// CCT is empty unless both are full.
func (h *Heap) minOtherPC(slot int) (int, bool) {
	other := HotContexts - 1 - slot
	return h.hot[other].PC, h.hotValid[other]
}

// SyncBlocked evaluates the selective synchronization barrier condition
// for the split in slot: it must wait at its SYNC (whose PCdiv payload
// it recorded via Wait) while any other split's PC lies within
// [PCdiv, PCrec), where PCrec is the split's own PC.
func (h *Heap) SyncBlocked(slot int) bool {
	c := h.Slot(slot)
	if c == nil || c.WaitDiv < 0 {
		return false
	}
	other, ok := h.minOtherPC(slot)
	if !ok {
		return false
	}
	return other >= c.WaitDiv && other < c.PC
}

// SyncBlockedAt reports whether a SYNC carrying pcDiv executed by the
// split in slot must suspend it, per the two cases of paper §3.3: it
// blocks exactly when another split's PC lies in [pcDiv, PCrec).
func (h *Heap) SyncBlockedAt(slot int, pcDiv int) bool {
	other, ok := h.minOtherPC(slot)
	return ok && other >= pcDiv && other < h.Slot(slot).PC
}

// Eligible reports whether the split in slot may be scheduled.
func (h *Heap) Eligible(slot int) bool {
	c := h.Slot(slot)
	if c == nil {
		return false
	}
	if c.Parked && c.Mask != h.alive {
		return false
	}
	return !h.SyncBlocked(slot)
}

// Suspended reports whether the split in slot exists but is
// architecturally suspended: parked at a partial barrier or waiting on
// a selective synchronization barrier. The front-end skips suspended
// contexts when choosing its primary, so a parked minimal-PC split
// cannot starve the runnable split behind it.
func (h *Heap) Suspended(slot int) bool {
	c := h.Slot(slot)
	if c == nil {
		return false
	}
	if c.Parked && c.Mask != h.alive {
		return true
	}
	return h.SyncBlocked(slot)
}

// Advance moves the split in hot slot to nextPC, merging with any other
// split already there. now is the current cycle (sideband-sorter
// statistics). A split that stays strictly between its neighbours — below
// the other hot context from slot 0, above it and below the CCT from
// slot 1 — is bumped in place: nothing merges, reorders or dies, so the
// layout, the slot masks and the statistics are already what rebuild
// would leave. Every other move rebuilds, and Advance then reports
// relaid together with the slot masks from before the move, which the
// dependency-matrix scoreboard needs for its transition.
func (h *Heap) Advance(slot int, nextPC int, now int64) (pre [3]uint64, relaid bool) {
	c := h.Slot(slot)
	c.PC = nextPC
	c.WaitDiv = -1
	c.Parked = false
	if h.inOrder(slot) {
		return pre, false
	}
	pre = h.SlotMasks()
	h.rebuild(now, false)
	return pre, true
}

// inOrder reports whether the valid hot context in slot still sorts
// strictly where it sits: hot[0] < hot[1] < cct[0] over the contexts
// that exist (rebuild fills slot 0 first and the CCT last).
func (h *Heap) inOrder(slot int) bool {
	if slot == 0 {
		return !h.hotValid[1] || h.hot[0].PC < h.hot[1].PC
	}
	return h.hot[0].PC < h.hot[1].PC && (len(h.cct) == 0 || h.hot[1].PC < h.cct[0].PC)
}

// Wait records that the split in slot attempted a SYNC carrying pcDiv
// and must retry once the region [pcDiv, PC) empties.
func (h *Heap) Wait(slot int, pcDiv int) { h.Slot(slot).WaitDiv = pcDiv }

// Park records that the split in slot reached a block barrier without
// holding every live thread of the warp.
func (h *Heap) Park(slot int) { h.Slot(slot).Parked = true }

// Diverge splits the context executing a branch at pcBranch: threads in
// taken continue at pcTaken, the rest of that context's threads at
// pcFall. The diverging context is identified by mask containment
// (taken must be a subset of exactly one live context, since contexts
// partition the warp). This is the single divergence event the HCT
// sorter accepts per cycle (the CPC3 input of figure 5).
//
// If taken is empty or covers the whole context, the context simply
// jumps (no split is created).
func (h *Heap) Diverge(pcBranch, pcTaken, pcFall int, taken uint64, now int64) {
	taken &= h.alive
	c := h.findByMask(taken)
	_ = pcBranch // the branch address does not affect heap state
	eff := c.Mask
	switch {
	case taken == 0:
		c.PC = pcFall
	case taken == eff:
		c.PC = pcTaken
	default:
		h.Stats.Divergences++
		c.PC = pcFall
		c.Mask = eff &^ taken
		c.WaitDiv = -1
		c.Parked = false
		h.cct = append(h.cct, Context{PC: pcTaken, Mask: taken, WaitDiv: -1, LastIssue: c.LastIssue})
	}
	c.WaitDiv = -1
	c.Parked = false
	h.rebuild(now, true)
}

// Exit retires the threads of the split in hot slot.
func (h *Heap) Exit(slot int, now int64) {
	c := h.Slot(slot)
	h.alive &^= c.Mask
	c.Mask = 0
	h.rebuild(now, false)
}

// findByMask returns the live context whose mask contains `taken`
// (hot slots first, then the CCT). Contexts partition the warp, so a
// `taken` no single context holds is a caller bug.
func (h *Heap) findByMask(taken uint64) *Context {
	if taken == 0 {
		// An all-fall-through branch comes from the primary split by
		// convention (the caller just executed it there).
		return h.Slot(0)
	}
	for i := range h.hot {
		if h.hotValid[i] && h.hot[i].Mask&taken == taken {
			return &h.hot[i]
		}
	}
	for i := range h.cct {
		if h.cct[i].Mask&taken == taken {
			return &h.cct[i]
		}
	}
	panic(fmt.Sprintf("reconv: threads %#x are not one split of %s", taken, h))
}

// rebuild restores the heap invariants after a mutation: dead contexts
// dropped, equal-PC contexts merged, contexts sorted ascending by PC,
// the two minima placed in the hot slots and the rest in the CCT.
// inserted marks mutations that created a new context (divergences), for
// the sideband-sorter statistics.
func (h *Heap) rebuild(now int64, inserted bool) {
	all := h.cct[:0:cap(h.cct)]
	var buf [HotContexts]Context
	nHot := 0
	for i := range h.hot {
		if h.hotValid[i] && h.hot[i].Mask&h.alive != 0 {
			h.hot[i].Mask &= h.alive
			buf[nHot] = h.hot[i]
			nHot++
		}
		h.hotValid[i] = false
	}
	live := all
	for _, c := range h.cct {
		if c.Mask &= h.alive; c.Mask != 0 {
			live = append(live, c)
		}
	}
	live = append(live, buf[:nHot]...)

	// Stable insertion sort by PC. The live set is tiny (real programs
	// rarely exceed 3 contexts, §3.4) and nearly sorted, and rebuild
	// runs on every heap mutation — one per issue — so this keeps the
	// issue path allocation-free where sort.SliceStable would not be.
	for i := 1; i < len(live); i++ {
		c := live[i]
		j := i - 1
		for ; j >= 0 && live[j].PC > c.PC; j-- {
			live[j+1] = live[j]
		}
		live[j+1] = c
	}

	// Merge equal PCs. Merged contexts re-evaluate any SYNC or barrier.
	out := live[:0]
	for _, c := range live {
		if n := len(out); n > 0 && out[n-1].PC == c.PC {
			out[n-1].Mask |= c.Mask
			out[n-1].WaitDiv = -1
			out[n-1].Parked = false
			if c.LastIssue > out[n-1].LastIssue {
				out[n-1].LastIssue = c.LastIssue
			}
			h.Stats.Merges++
			continue
		}
		out = append(out, c)
	}

	for i := 0; i < HotContexts && i < len(out); i++ {
		h.hot[i] = out[i]
		h.hotValid[i] = true
	}
	// Keep `out`'s backing as the new CCT storage: when the live set
	// outgrew the old array, appending reallocated, and resetting to the
	// old slice would leak the growth and reallocate on every rebuild.
	if len(out) > HotContexts {
		n := copy(out, out[HotContexts:])
		h.cct = out[:n]
	} else {
		h.cct = out[:0]
	}

	if inserted && len(h.cct) > 0 {
		// Sideband-sorter accounting: one insertion per divergence that
		// spills into the CCT. Walking to the insertion point costs
		// cycles; back-to-back insertions would degrade to LIFO.
		if len(h.cct) > h.cctCap {
			h.Stats.CCTOverflows++
		}
		if now < h.sorterFreeAt {
			h.Stats.DegradedInser++
		} else {
			h.sorterFreeAt = now + int64(len(h.cct))
		}
	}
	if n := h.Splits(); n > h.Stats.MaxSplits {
		h.Stats.MaxSplits = n
	}
}

func (h *Heap) String() string {
	s := "heap{"
	for i := range h.hot {
		if h.hotValid[i] {
			s += fmt.Sprintf("hot%d@%d:%#x ", i, h.hot[i].PC, h.hot[i].Mask)
		}
	}
	return s + fmt.Sprintf("cct=%d alive=%#x}", len(h.cct), h.alive)
}
