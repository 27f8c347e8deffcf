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
//     the scoreboard's verdict as one wake cycle and the kind of stall
//     before it, taken from one sched.Scoreboard.Horizon call. Writeback
//     times are fixed at issue and a warp's entry rows change only in its
//     own heap mutations, so the verdict is a step function of the cycle
//     until the warp's next event: a probe is one integer compare plus
//     the unit check.
//   - sleepers are the ready warps no walk visits. A warp the primary
//     walk probes and finds stalled by the scoreboard — the cycle before
//     its record's wake cycle — is filed here with the first cycle it is
//     spared, and in madSleepers and structSleepers by its unit and its
//     kind of stall; nextWake bounds the earliest wake cycle among them,
//     and the walk wakes whoever is due before it starts, so a woken warp
//     is probed that same cycle at its own place in the ascending order.
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
// Settlement. Every probe of a sleeper before its wake cycle stalls, and
// with the same kind of stall: the record's stall is structural
// throughout or not at all (see issueCand), so the sleeper's
// structSleepers bit says which. The primary walk's probes of it tick
// Checks and Stalls once per cycle of [from, wake), Structural too when
// the bit is set, and settle adds exactly that when the warp wakes, so
// at any cycle the counters run behind the per-cycle rescan's by what
// the current sleepers are owed and equal it whenever none is left — at
// the latest when the last block retires. No event reaches a sleeper
// before its wake cycle: refreshWarp's callers touch a warp that issued,
// was at a barrier, is new or is done, and a sleeper is none of these —
// it is resident and not at a barrier (it is in readySet), no walk
// visits it, and the SBI and sequential secondaries belong to the
// primary's own warp. refreshWarp panics if one ever does.
//
// Readers. The record is the only way the per-cycle walk asks the
// scoreboard. Its readers probe only awake warps, in ascending warp
// order — the seed rescan's order — ticking the scoreboard counters
// exactly as a ReadyAt call would; a sleeper's probes are counted from
// the bitsets instead, by popcounts, since their outcome is known. So
// counters, tie-breaking draws and cycles are bit-identical with the
// seed (internal/device's walk_stats.golden pins every counter of every
// kernel on every architecture, written by the walk that still rescanned
// every ready warp every cycle):
//
//   - selectPrimary, the oldest-first primary walk over the warps awake;
//   - swiSecondary, the buddy-set search beside a primary. It probes the
//     set's awake warps and counts one stall per sleeper, less the MAD
//     sleepers whose lanes collide with a MAD primary: the lane filter
//     skips those before the probe, and only they are looked at one by
//     one;
//   - substitute, the search of a round-robin buddy set in a cycle with
//     no primary issue. It never issues: the primary walk has just failed
//     the same ready test on every awake warp, whose scoreboard is
//     therefore clear, and a sleeper's wake cycle is still ahead. It adds
//     probe counts only, three popcounts per word;
//   - fastForward, which after a cycle that issued nothing advances
//     s.now across the idle span: with no issue every record is frozen,
//     so the wake-up cycle is the minimum over records of max(wake, unit
//     free time), and the counters the skipped probes would have ticked
//     follow arithmetically (accountIdle): span Checks per awake warp,
//     and per set of the substitute's the Checks of its cycles times the
//     warps in it. A sleeper's share of the span is split at its wake
//     cycle: the primary probes before it are its settlement's, those
//     from it to the end of the span — scoreboard clear, unit still busy,
//     Checks only — are accountIdle's, which walks the sleepers alone.
//     Leaving the sleeper out of the whole span loses the latter
//     (TestSleeperWakesInsideIdleSpan).
//
// Splits off the primary slot — the same-cycle SBI and sequential
// secondaries, probed at most once per cycle — query ReadyAt directly
// (finishCandidate). ReadyAt retires the warp's dead scoreboard entries
// as it goes; for a cached candidate the walk does that when it selects
// the warp (pick), so every issue follows a prune of its warp's table
// in the same cycle — the bound on the table's length (sched.Prune).

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/isa"
)

// warpBits is a bitset over the SM's warp contexts, iterated in
// ascending warp order — the order the reference rescan visits warps,
// which oldest-first selection and tie-breaking depend on.
type warpBits []uint64

// cacheLine is the unit in which cores trade memory. The walk reads
// readySet, the sleeper sets, slotOf, the buddy-set masks and the MAD groups'
// free times every cycle and writes all but the masks at every issue,
// sleep and wake, for as long as the shell lives — a few words each. A
// block smaller than a line shares its line with whatever the allocator
// puts beside it, and on a run queue with several workers that is
// another worker's shell: each write on one core then costs the other a
// miss, and whether two shells are paired that way is settled by the
// order of their first allocations — a launch-storm pass took half
// again as long in the processes where they were (two in five). Blocks
// of whole lines are line-aligned in every size class of the runtime,
// so these words are the shell's own (ownLines).
const cacheLine = 64

// ownLines returns n zeroed elements of size bytes each at the head of a
// block of whole cache lines.
func ownLines[T any](n, size int) []T {
	per := cacheLine / size
	return make([]T, (n+per-1)/per*per)[:n:n]
}

func newWarpBits(words int) warpBits { return ownLines[uint64](words, 8) }

func (b warpBits) set(i int)      { b[i>>6] |= 1 << uint(i&63) }
func (b warpBits) clear(i int)    { b[i>>6] &^= 1 << uint(i&63) }
func (b warpBits) has(i int) bool { return b[i>>6]>>uint(i&63)&1 != 0 }

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
	if s.sleepers.has(w.id) {
		panic("sm: an event reached a sleeping warp") // see Settlement in the file comment
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
//	t <  wake:  the scoreboard reports a stall — counted as a structural
//	            stall too when structural, the entry table being full
//	            with no data hazard behind it
//	wake <= t:  the scoreboard is clear; only the target unit's busy
//	            time holds the candidate back
//
// A stall is one kind throughout. A warp never holds more live entries
// than ScoreboardEntries (every destination-writing issue passes the
// structural check at its own cycle), so a full table frees its first
// entry no later than any one of them, the conflicting entry included:
// a data hazard outlasts the table's being full (fillCand panics if one
// ever does not). The full candidate is rebuilt from pc/mask/lane on
// selection (pick), which keeps the record at 48 bytes per warp context.
type issueCand struct {
	valid      bool
	structural bool // the stall is the full table's, not a data hazard's
	unit       isa.Unit
	pc         int32
	mask       uint64
	lane       uint64
	lastIssue  int64 // oldest-first age key
	wake       int64 // the first cycle the scoreboard clears; negInf when it is clear
	from       int64 // sleeper only: the first cycle of its sleep
}

// describe renders the record for dumpState: the unit the candidate
// needs, the cycle its data hazard or its structural stall ends, and
// whether the primary walk is probing it.
func (r *issueCand) describe(asleep bool) string {
	if !r.valid {
		return " ready{not probed since its last event}"
	}
	hazT, structT := "-", "-"
	if r.wake != negInf {
		hazT = fmt.Sprint(r.wake)
	}
	if r.structural {
		hazT, structT = structT, hazT
	}
	state := "awake"
	if asleep {
		state = fmt.Sprintf("asleep until %d", r.wake)
	}
	return fmt.Sprintf(" ready{unit=%v hazT=%s structT=%s %s}", r.unit, hazT, structT, state)
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
		lastIssue: last, wake: negInf}
	switch {
	case hasHaz && hasStruct && structWB > hazWB:
		panic("sm: a full scoreboard table outlasts a data hazard") // see issueCand
	case hasHaz:
		r.wake = hazWB + d
	case hasStruct:
		r.wake, r.structural = structWB+d, true
	}
}

// ready is one scheduler probe of a record at the current cycle: the
// scoreboard verdict — ticking the counters the equivalent ReadyAt call
// would — and the unit capacity. No warp is probed in a cycle it has
// issued in: the only probes after an issue are swiSecondary's, which
// exclude the primary's warp, and the baseline's second pool, which
// holds the other parity.
//
//sbwi:hotpath
func (s *SM) ready(r *issueCand) bool {
	st := &s.sb.Stats
	st.Checks++
	if s.now < r.wake {
		st.Stalls++
		if r.structural {
			st.Structural++
		}
		return false
	}
	return s.units.canIssue(r.unit, r.lane, s.now)
}

// sleep takes a warp the primary walk has just probed and found stalled
// by the scoreboard out of the walk until its record's wake cycle, and
// files it by what the SWI searches need to count its probes without
// visiting it: whether its unit is MAD and whether its stall is
// structural.
//
//sbwi:hotpath
func (s *SM) sleep(id int, r *issueCand) {
	s.sleepers.set(id)
	if r.unit == isa.UnitMAD {
		s.madSleepers.set(id)
	}
	if r.structural {
		s.structSleepers.set(id)
	}
	r.from = s.now + 1
	s.nextWake = min(s.nextWake, r.wake)
}

// settle ends a warp's sleep at cycle end (at most its wake cycle): the
// primary walk's probes of the cycles [from, end) it was spared, every
// one a stall, tick the counters in closed form.
//
//sbwi:hotpath
func (s *SM) settle(id int, end int64) {
	r := &s.cands[id]
	n := count(r.from, min(end, r.wake)-1)
	s.sb.Stats.Checks += n
	s.stall(id, n)
	s.sleepers.clear(id)
	s.madSleepers.clear(id)
	s.structSleepers.clear(id)
}

// stall ticks the stall counters for n probes of sleeper id, every one a
// stall of the sleeper's one kind.
//
//sbwi:hotpath
func (s *SM) stall(id int, n uint64) {
	s.sb.Stats.Stalls += n
	if s.structSleepers.has(id) {
		s.sb.Stats.Structural += n
	}
}

// wakeSleepers settles every sleeper whose wake cycle has come and
// finds the next one due. Woken warps rejoin readySet's ascending walk
// in the same cycle, at their own position.
//
//sbwi:hotpath
func (s *SM) wakeSleepers() {
	next := int64(math.MaxInt64)
	for base, word := range s.sleepers {
		for ; word != 0; word &= word - 1 {
			id := base<<6 | bits.TrailingZeros64(word)
			if wake := s.cands[id].wake; wake > s.now {
				next = min(next, wake)
			} else {
				s.settle(id, wake)
			}
		}
	}
	s.nextWake = next
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
			wake = min(wake, max(r.wake, s.units.freeAt(r.unit)))
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
// substitute search counts buddy set (cycle mod numSets) a second time.
// The cycle before the span issued nothing, so every awake warp's
// scoreboard is clear (wake < a) and each of its probes is a Check only.
// A sleeper's settlement owns its primary probes before its wake cycle;
// the walk's share of the span is the rest — the scoreboard clear, the
// unit still busy. The substitute's probes of a sleeper stall until its
// wake cycle. fastForward has just filled every record.
//
//sbwi:hotpath
func (s *SM) accountIdle(a, b int64) {
	st := &s.sb.Stats
	span := count(a, b)
	for base, word := range s.readySet {
		asleep := s.sleepers[base]
		st.Checks += span * ones(word&^asleep)
		for ; asleep != 0; asleep &= asleep - 1 {
			st.Checks += count(max(a, s.cands[base<<6|bits.TrailingZeros64(asleep)].wake), b)
		}
	}
	numSets := int64(len(s.setBits))
	for k, set := range s.setBits {
		n := countResidue(a, b, int64(k), numSets)
		for base, word := range set {
			st.Checks += n * ones(word&s.readySet[base])
			for asleep := word & s.sleepers[base]; asleep != 0; asleep &= asleep - 1 {
				id := base<<6 | bits.TrailingZeros64(asleep)
				s.stall(id, countResidue(a, min(b, s.cands[id].wake-1), int64(k), numSets))
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

// ones returns the number of warps in one word of a warpBits.
//
//sbwi:hotpath
func ones(word uint64) uint64 { return uint64(bits.OnesCount64(word)) }

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
