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
//     until the warp's next event.
//   - Every ready warp is in exactly one of three places. An awake warp,
//     whose scoreboard is clear, is linked into the index list of its
//     unit — CTRL, MAD, SFU or LSU, and on the Baseline per parity pool —
//     in ascending (lastIssue, id), the oldest-first order. A sleeper,
//     whose record says the scoreboard stalls it until its wake cycle, is
//     linked into the calendar in ascending wake cycle, and filed in
//     madSleepers and structSleepers by its unit and its kind of stall.
//     A stale warp has had an event since its record was filled and is
//     in neither.
//
// Fill at events. Everything above reads only the warp's own state —
// block residency, barrier flag, heap or stack, scoreboard entries — so
// refreshWarp, called at every event that can change any of it (an
// issue on the warp: heap mutation, barrier arrival, thread exit, new
// scoreboard entry; a barrier release; a block launch or retire),
// recomputes readySet/slotOf, unlinks the warp and marks it stale. A
// warp can take two events in one cycle (a primary issue and an SBI or
// sequential secondary on the same warp), so the records are refilled
// once per cycle, before the walk (fill): first the calendar's due
// sleepers wake into their unit's list, then every stale warp's record
// is filled at the current cycle — the cycle of its first probe — and
// the warp is linked by it. TestCandidateCacheCoherent checks after
// every step that each filled record equals a fresh computation and that
// the index, the calendar and the stale set partition readySet.
//
// Sleep at fill. A record whose wake cycle is still ahead sends its warp
// straight to the calendar, with from set to the fill cycle: the primary
// walk would have probed it there and at every cycle up to its wake, and
// every one of those probes stalls, with the same kind of stall — the
// record's stall is structural throughout or not at all (see issueCand),
// so the sleeper's structSleepers bit says which. settle ticks Checks and
// Stalls once per cycle of [from, wake), Structural too when the bit is
// set, when the warp wakes, so at any cycle the counters run behind the
// per-cycle rescan's by what the current sleepers are owed and equal it
// whenever none is left — at the latest when the last block retires.
// After the fill every awake warp is clear on the scoreboard, so a
// primary probe of it is one Check and never a Stall. No event reaches a
// sleeper before its wake cycle: refreshWarp's callers touch a warp that
// issued, was at a barrier, is new or is done, and a sleeper is none of
// these — it is resident and not at a barrier (it is in readySet), no
// walk selects it, and the SBI and sequential secondaries belong to the
// primary's own warp. refreshWarp panics if one ever does.
//
// Readers. The record is the only way the per-cycle walk asks the
// scoreboard. No reader probes a sleeper or fills a record; the
// scoreboard counters a probe would tick are counted in closed form, so
// counters, tie-breaking draws and cycles are bit-identical with the
// per-cycle rescan (internal/device's walk_stats.golden pins every
// counter of every kernel on every architecture, and TestWalkMatchesRescan
// holds the walk to a rescan that probes every warp every cycle):
//
//   - selectPrimary, the oldest-first primary walk: one Check per awake
//     warp of the pool, a popcount, and the oldest of the list heads
//     whose unit can issue — at most four. Primary MAD issue needs only a
//     free group; the one case that asks the row's lanes, the Baseline's
//     second pool beside a first-pool MAD with every group taken, walks
//     the MAD list to the first warp whose lanes fit;
//   - swiSecondary, the buddy-set search beside a primary. It probes the
//     set's awake warps and counts one stall per sleeper, less the MAD
//     sleepers whose lanes collide with a MAD primary: the lane filter
//     skips those before the probe, and only they are looked at one by
//     one. The primary's own warp is stale after its issue, so the search
//     never meets it;
//   - substitute, the search of a round-robin buddy set in a cycle with
//     no primary issue. It never issues: the primary walk has just failed
//     the same ready test on every awake warp, whose scoreboard is
//     therefore clear, and a sleeper's wake cycle is still ahead. It adds
//     probe counts only, three popcounts per word;
//   - fastForward, which after a cycle that issued nothing advances
//     s.now across the idle span: with no issue every record is frozen,
//     so the wake-up cycle is the earliest free time among the units with
//     an awake warp, or a sleeper's max(wake, unit free time) — read from
//     the calendar's front while its wake cycles are earlier than that —
//     and the counters the skipped probes would have ticked follow
//     arithmetically (accountIdle): span Checks per awake warp, and per
//     set of the substitute's the Checks of its cycles times the warps in
//     it. A sleeper's share of the span is split at its wake cycle: the
//     primary probes before it are its settlement's, those from it to the
//     end of the span — scoreboard clear, unit still busy, Checks only —
//     are accountIdle's, which walks the sleepers alone. Leaving the
//     sleeper out of the whole span loses the latter
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
// which the SWI searches' tie-breaking depends on.
type warpBits []uint64

// cacheLine is the unit in which cores trade memory. The walk reads
// readySet, the sleeper and stale sets, slotOf, the index links, the
// buddy-set masks and the MAD groups' free times every cycle and writes
// all but the masks at every issue, sleep and wake, for as long as the
// shell lives — a few words each. A block smaller than a line shares its
// line with whatever the allocator puts beside it, and on a run queue
// with several workers that is another worker's shell: each write on one
// core then costs the other a miss, and whether two shells are paired
// that way is settled by the order of their first allocations — a
// launch-storm pass took half again as long in the processes where they
// were (two in five). Blocks of whole lines are line-aligned in every
// size class of the runtime, so these words are the shell's own
// (ownLines).
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

// index is the oldest-first index and the calendar: numLists circular
// doubly linked lists over the warp ids — list unit+4*pool per unit
// class (numbered as isa.Unit) and pool, and list calendar — each in
// ascending (key, id). Node n below warps is warp n; node end(l) is list
// l's sentinel, whose key, the largest, closes every search. next, prev
// and key come in blocks of whole cache lines (ownLines).
type index struct {
	next, prev []int32
	links      []int32 // the block next and prev are cut from
	key        []int64
	warps      int32
}

const (
	unitLists = 8
	calendar  = unitLists
	numLists  = unitLists + 1
)

// reset empties every list of an index over warps warp contexts,
// reusing the arrays it has grown for any warp count.
func (x *index) reset(warps int) {
	n := warps + numLists
	if cap(x.key) < n {
		x.links, x.key = ownLines[int32](2*n, 4), ownLines[int64](n, 8)
	}
	x.next, x.prev, x.key = x.links[:n:n], x.links[n:2*n:2*n], x.key[:n]
	x.warps = int32(warps)
	for l := range numLists {
		e := x.end(l)
		x.next[e], x.prev[e], x.key[e] = e, e, math.MaxInt64
	}
}

// end returns list l's sentinel: its first warp is next[end(l)], and a
// walk along it ends there.
//
//sbwi:hotpath
func (x *index) end(l int) int32 { return x.warps + int32(l) }

// before reports whether node a precedes node b in their list: the
// smaller key and on a tie the lower id — for the oldest-first lists
// the warp the ascending rescan met first.
//
//sbwi:hotpath
func (x *index) before(a, b int32) bool {
	return x.key[a] < x.key[b] || x.key[a] == x.key[b] && a < b
}

// link inserts warp id into list l under key. A warp that has just
// issued carries the youngest age and goes last, so the search starts
// from the head only for a key that goes before the last one.
//
//sbwi:hotpath
func (x *index) link(l, id int, key int64) {
	w, at := int32(id), x.prev[x.end(l)] // w goes after at
	x.key[w] = key
	if x.before(w, at) {
		at = x.end(l)
		for x.before(x.next[at], w) {
			at = x.next[at]
		}
	}
	x.next[w], x.prev[w] = x.next[at], at
	x.prev[x.next[at]], x.next[at] = w, w
}

// unlink takes warp id out of its list.
//
//sbwi:hotpath
func (x *index) unlink(id int) {
	x.next[x.prev[id]], x.prev[x.next[id]] = x.next[id], x.prev[id]
}

// refreshWarp recomputes the cached schedulability of one warp after an
// event that may have changed it, takes it out of the index and marks
// its record stale. The invariant maintained: a warp's readySet bit is
// set if and only if the reference scheduler's pre-scoreboard checks
// would pass for it this cycle, and slotOf holds its primary front-end
// slot.
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
	switch {
	case s.sleepers.has(w.id):
		panic("sm: an event reached a sleeping warp") // see Sleep at fill in the file comment
	case s.readySet.has(w.id) && !s.stale.has(w.id):
		s.idx.unlink(w.id)
	}
	s.slotOf[w.id] = int8(slot)
	if ok {
		s.readySet.set(w.id)
		s.stale.set(w.id)
	} else {
		s.readySet.clear(w.id)
		s.stale.clear(w.id)
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

// fill readies the index for the cycle's walk: it wakes the calendar's
// due sleepers, settling what they are owed, and fills every stale
// record at the current cycle, linking its warp into its unit's list or,
// when the scoreboard still stalls it, into the calendar.
//
//sbwi:hotpath
func (s *SM) fill() {
	cal := s.idx.end(calendar)
	for id := int(s.idx.next[cal]); s.idx.key[id] <= s.now; id = int(s.idx.next[cal]) {
		s.idx.unlink(id)
		s.settle(id)
		s.idx.link(s.listOf(id), id, s.cands[id].lastIssue)
	}
	for base, word := range s.stale {
		for ; word != 0; word &= word - 1 {
			id := base<<6 | bits.TrailingZeros64(word)
			r := &s.cands[id]
			s.fillCand(id, r)
			if s.now < r.wake {
				s.sleep(id, r)
			} else {
				s.idx.link(s.listOf(id), id, r.lastIssue)
			}
		}
		s.stale[base] = 0
	}
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
	r.unit, r.pc, r.mask, r.lane, r.lastIssue = ins.Op.Unit(), int32(pc), mask, w.lanes.Mask(mask), last
	r.wake, r.structural = negInf, false
	switch {
	case hasHaz && hasStruct && structWB > hazWB:
		panic("sm: a full scoreboard table outlasts a data hazard") // see issueCand
	case hasHaz:
		r.wake = hazWB + d
	case hasStruct:
		r.wake, r.structural = structWB+d, true
	}
}

// listOf returns the index list of an awake warp: its record's unit, in
// its pool.
//
//sbwi:hotpath
func (s *SM) listOf(id int) int {
	return int(s.cands[id].unit) + 4*(id&s.poolBit)
}

// sleep files a warp whose freshly filled record stalls on the calendar
// until the record's wake cycle, and by what the SWI searches need to
// count its probes without visiting it: whether its unit is MAD and
// whether its stall is structural.
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
	r.from = s.now
	s.idx.link(calendar, id, r.wake)
}

// settle ends a warp's sleep at its wake cycle: the primary walk's
// probes of the cycles [from, wake) it was spared, every one a stall,
// tick the counters in closed form.
//
//sbwi:hotpath
func (s *SM) settle(id int) {
	r := &s.cands[id]
	n := count(r.from, r.wake-1)
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
	// Every awake warp is clear, so its unit alone holds it back; a
	// sleeper waits for its wake cycle too, and the calendar's later
	// ones cannot come earlier than the wake-up found so far.
	wake := maxCycles + 1
	for l := range 4 << s.poolBit {
		if e := s.idx.end(l); s.idx.next[e] != e {
			wake = min(wake, s.units.freeAt(isa.Unit(l&3)))
		}
	}
	for id := s.idx.next[s.idx.end(calendar)]; s.idx.key[id] < wake; id = s.idx.next[id] {
		wake = min(wake, max(s.idx.key[id], s.units.freeAt(s.cands[id].unit)))
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
// wake cycle. No record is stale: the cycle's fill took them all, and
// nothing issued since.
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
