package sm

// This file holds the incrementally maintained scheduler state. It
// replaces the seed's per-cycle full rescan of every warp context — and
// its scoreboard table scan on every probe — with per-warp bookkeeping
// refreshed by events:
//
//   - readySet / slotOf cache, per warp, whether the front-end's
//     pre-scoreboard checks pass (resident, not at a barrier, primary
//     slot exists and is not suspended) and which hot slot the primary
//     front-end follows.
//   - cands holds, per ready warp, its issue candidate (issueCand): the
//     primary slot's pc, mask, lane mask, unit and last-issue cycle, and
//     the scoreboard's verdict as two cycle thresholds taken from one
//     sched.Scoreboard.Horizon call. Writeback times are fixed at issue
//     and a warp's entry rows change only in its own heap mutations, so
//     the verdict is a step function of the cycle until the warp's next
//     event: a probe is two integer compares plus the unit check.
//
// Invalidation. Everything above reads only the warp's own state —
// block residency, barrier flag, heap or stack, scoreboard entries — so
// refreshWarp, called at every event that can change any of it (an
// issue on the warp: heap mutation, barrier arrival, thread exit, new
// scoreboard entry; a barrier release; a block launch or retire),
// recomputes readySet/slotOf and drops the warp's record. The record is
// refilled at the warp's next probe (cand), never for a warp outside
// readySet. TestCandidateCacheCoherent checks after every step that
// each live record equals a fresh computation.
//
// Readers. The record is the only way the per-cycle walk asks the
// scoreboard, and it has three readers, all probing in ascending warp
// order — the seed rescan's order — and ticking the scoreboard counters
// from the thresholds exactly as a ReadyAt call would, so counters,
// tie-breaking draws and cycles are bit-identical with the seed (the
// golden-stats fixture pins absolute results):
//
//   - selectPrimary, the oldest-first primary walk;
//   - swiSecondary, both the buddy-set search beside a primary and the
//     substitute search when no primary issued;
//   - fastForward, which after a cycle that issued nothing advances
//     s.now across the idle span: with no issue every record is frozen,
//     so the wake-up cycle is the minimum over records of
//     max(thresholds, unit free time), and the counters the skipped
//     probes would have ticked follow arithmetically (accountIdle).
//
// Splits off the primary slot — the same-cycle SBI and sequential
// secondaries, probed at most once per cycle — query ReadyAt directly
// (finishCandidate). ReadyAt retires the warp's dead scoreboard entries
// as it goes; for a cached candidate the walk does that when it selects
// the warp (pick), so every issue follows a prune of its warp's table
// in the same cycle — the bound on the table's length (sched.Prune).

import (
	"math"
	"math/bits"

	"repro/internal/isa"
)

// warpBits is a bitset over the SM's warp contexts, iterated in
// ascending warp order — the order the reference rescan visits warps,
// which oldest-first selection and tie-breaking depend on.
type warpBits []uint64

func newWarpBits(n int) warpBits { return make(warpBits, (n+63)/64) }

func (b warpBits) set(i int)   { b[i>>6] |= 1 << uint(i&63) }
func (b warpBits) clear(i int) { b[i>>6] &^= 1 << uint(i&63) }

// refreshWarp recomputes the cached schedulability of one warp after an
// event that may have changed it, and drops its issue-candidate record.
// The invariant maintained: a warp's readySet bit is set if and only if
// the reference scheduler's pre-scoreboard checks would pass for it this
// cycle, and slotOf holds its primary front-end slot.
//
//sbwi:hotpath
func (s *SM) refreshWarp(w *warp) {
	if w.block != nil && !w.deadCounted && w.done() {
		// First observation of the warp's completion: fold it into the
		// block's live counter for the O(blocks) retire/barrier sweeps.
		w.deadCounted = true
		if w.block.live--; w.block.live == 0 {
			s.finished++
		}
	}
	slot := 0
	ok := false
	if w.block != nil && !w.atBarrier {
		if w.heap != nil {
			if !w.heap.Done() {
				slot = s.primarySlot(w)
				ok = w.heap.Eligible(slot)
			}
		} else if _, _, live := w.stack.Active(); live {
			ok = true
		}
	}
	s.slotOf[w.id] = int8(slot)
	s.cands[w.id].valid = false
	if ok {
		s.readySet.set(w.id)
	} else {
		s.readySet.clear(w.id)
	}
}

// issueCand is one ready warp's cached issue candidate. With the warp's
// state frozen between its own events, a probe at cycle t answers:
//
//	t <  hazT:            the scoreboard reports a data-hazard stall
//	hazT <= t < structT:  the entry table is structurally full (counted
//	                      as both a stall and a structural stall)
//	otherwise:            the scoreboard is clear; only the target
//	                      unit's busy time holds the candidate back
//
// The full candidate is rebuilt from pc/mask/lane on selection (pick),
// which keeps the record at 48 bytes per warp context.
type issueCand struct {
	valid     bool
	unit      isa.Unit
	pc        int32
	mask      uint64
	lane      uint64
	lastIssue int64 // oldest-first age key and once-per-cycle issue guard
	hazT      int64 // negInf when no live entry conflicts
	structT   int64 // negInf when the table is not full or nothing is written
}

// negInf is a sentinel "always in the past" threshold, kept far from
// the int64 edge so the interval arithmetic on it cannot overflow.
const negInf = math.MinInt64 / 4

// cand returns the issue-candidate record of a warp in readySet, filling
// it when an event on the warp dropped it.
//
//sbwi:hotpath
func (s *SM) cand(id int) *issueCand {
	r := &s.cands[id]
	if !r.valid {
		s.fillCand(id, r)
	}
	return r
}

// fillCand is the walk's single scoreboard query. s.now is the first
// cycle the record is probed at, so entries written back by
// s.now-IssueDelay are dead to it.
//
//sbwi:hotpath
func (s *SM) fillCand(id int, r *issueCand) {
	w := s.warps[id]
	slot := int(s.slotOf[id])
	var pc int
	var mask uint64
	last := w.lastIssue
	if w.heap != nil {
		c := w.heap.Slot(slot)
		pc, mask, last = c.PC, c.Mask, c.LastIssue
	} else {
		pc, mask, _ = w.stack.Active()
	}
	ins := s.prog.At(pc)
	d := s.cfg.IssueDelay
	hazWB, hasHaz, structWB, hasStruct := s.sb.Horizon(id, ins, s.srcsOf[pc], slot, mask, s.now-d)
	*r = issueCand{valid: true, unit: ins.Op.Unit(), pc: int32(pc), mask: mask, lane: w.laneMask(mask),
		lastIssue: last, hazT: negInf, structT: negInf}
	if hasHaz {
		r.hazT = hazWB + d
	}
	if hasStruct {
		r.structT = structWB + d
	}
}

// ready is one scheduler probe of a record at the current cycle: the
// once-per-cycle issue guard, the scoreboard verdict — ticking the
// counters the equivalent ReadyAt call would — and the unit capacity.
//
//sbwi:hotpath
func (s *SM) ready(r *issueCand) bool {
	if r.lastIssue >= s.now {
		return false
	}
	st := &s.sb.Stats
	st.Checks++
	switch {
	case s.now < r.hazT:
		st.Stalls++
		return false
	case s.now < r.structT:
		st.Stalls++
		st.Structural++
		return false
	}
	return s.units.canIssue(r.unit, r.lane, s.now)
}

// pick rebuilds the full candidate of a selected warp from its record
// and retires the warp's dead scoreboard entries ahead of the issue.
//
//sbwi:hotpath
func (s *SM) pick(id int, out *candidate) {
	s.sb.Prune(id, s.now-s.cfg.IssueDelay)
	r := &s.cands[id]
	pc := int(r.pc)
	*out = candidate{w: s.warps[id], slot: int(s.slotOf[id]), pc: pc, mask: r.mask, lane: r.lane, ins: s.prog.At(pc)}
}

// fastForward is called after a cycle that issued nothing. It computes
// the earliest cycle at which any candidate can issue, accounts the
// scoreboard counters the skipped per-cycle probes would have
// incremented, and jumps s.now there. When nothing can ever wake
// (no schedulable candidate exists and no issue will create one), it
// reproduces the reference loop's livelock abort at the cycle limit.
//
//sbwi:hotpath
func (s *SM) fastForward(maxCycles int64) error {
	// The reference loop would burn idle cycles one at a time until the
	// wake-up — or until the cycle limit trips with s.now just past it.
	wake := maxCycles + 1
	for base, word := range s.readySet {
		for ; word != 0; word &= word - 1 {
			r := s.cand(base<<6 | bits.TrailingZeros64(word))
			wake = min(wake, max(r.hazT, r.structT, s.units.freeAt(r.unit)))
		}
	}
	if wake <= s.now {
		return nil
	}
	s.accountIdle(s.now, wake-1)
	s.now = wake
	if s.now > maxCycles {
		return s.livelockErr(maxCycles)
	}
	return nil
}

// accountIdle reproduces, arithmetically, the scoreboard counters the
// reference loop would have incremented over the idle cycles [a, b]:
// each cycle the primary scheduler probes every schedulable candidate
// once, and — on the SWI architectures, with no primary found — the
// substitute secondary probes the candidates of buddy set (cycle mod
// numSets) a second time. fastForward has just filled every record.
//
//sbwi:hotpath
func (s *SM) accountIdle(a, b int64) {
	st := &s.sb.Stats
	numSets := int64(len(s.setBits)) // 0 without SWI
	for base, word := range s.readySet {
		for ; word != 0; word &= word - 1 {
			id := base<<6 | bits.TrailingZeros64(word)
			r := &s.cands[id]
			stallHi := min(b, max(r.hazT, r.structT)-1)
			structLo := max(a, r.hazT)
			structHi := min(b, r.structT-1)

			st.Checks += count(a, b)
			st.Stalls += count(a, stallHi)
			st.Structural += count(structLo, structHi)

			if numSets > 0 {
				residue := int64(s.memberOf[id])
				st.Checks += countResidue(a, b, residue, numSets)
				st.Stalls += countResidue(a, stallHi, residue, numSets)
				st.Structural += countResidue(structLo, structHi, residue, numSets)
			}
		}
	}
}

// count returns the number of integers in [lo, hi] (0 when empty).
//
//sbwi:hotpath
func count(lo, hi int64) uint64 {
	if hi < lo {
		return 0
	}
	return uint64(hi - lo + 1)
}

// countResidue returns the number of integers t in [lo, hi] with
// t mod m == r (lo >= 0, 0 <= r < m).
//
//sbwi:hotpath
func countResidue(lo, hi, r, m int64) uint64 {
	if hi < lo {
		return 0
	}
	if m == 1 {
		return uint64(hi - lo + 1)
	}
	first := lo + (r-lo%m+m)%m
	if first > hi {
		return 0
	}
	return uint64((hi-first)/m + 1)
}
