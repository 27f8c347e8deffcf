package sm

import (
	"math/bits"
	"testing"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/progen"
	"repro/internal/sched"
)

// checkCandCache recomputes every filled issue-candidate record — each
// ready warp's but a stale one's, which the next cycle's fill refills
// before its walk — from the warp's heap or stack and a fresh Horizon at
// the current cycle. Fields must match exactly; the thresholds must give
// the same verdict at every cycle from s.now on (a threshold already in
// the past and a missing one are the same answer). A sleeper is a ready
// warp holding such a record — so the fresh Horizon still says stalled
// until its wake cycle — that slept no later than walked, the cycle of
// the step's primary walk, and wakes after it. checkIndex checks where
// each ready warp is filed.
func checkCandCache(t *testing.T, s *SM, walked int64) {
	t.Helper()
	checkIndex(t, s)
	d := s.cfg.IssueDelay
	for id := range s.cands {
		if !s.readySet.has(id) || s.stale.has(id) {
			continue
		}
		r := s.cands[id]
		if s.sleepers.has(id) && (r.wake <= walked || r.from > walked) {
			t.Fatalf("cycle %d: sleeper %d sleeps [%d, %d) after the walk of cycle %d",
				s.now, id, r.from, r.wake, walked)
		}
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
		if int(r.pc) != pc || r.mask != mask || r.lane != w.lanes.Mask(mask) || r.unit != ins.Op.Unit() || r.lastIssue != last {
			t.Fatalf("cycle %d: warp %d record {pc %d mask %#x lane %#x unit %v last %d}, warp state {pc %d mask %#x lane %#x unit %v last %d}",
				s.now, id, r.pc, r.mask, r.lane, r.unit, r.lastIssue, pc, mask, w.lanes.Mask(mask), ins.Op.Unit(), last)
		}
		hazT, structT := int64(negInf), int64(negInf)
		hazWB, hasHaz, structWB, hasStruct := s.sb.Horizon(id, ins, s.srcsOf[pc], slot, mask, s.now-d)
		if hasHaz {
			hazT = hazWB + d
		}
		if hasStruct {
			structT = structWB + d
		}
		// From s.now on the record stalls on [s.now, end), structurally
		// throughout or not at all; fresh, a hazard stall runs to hazT and
		// a structural one from there to structT.
		end, wantEnd := max(r.wake, s.now), max(hazT, structT, s.now)
		structural, wantStructural := r.structural && end > s.now, structT > max(hazT, s.now)
		if end != wantEnd || structural != wantStructural || wantStructural && hazT > s.now {
			t.Fatalf("cycle %d: warp %d cached record stalls until %d (structural %v), fresh thresholds (%d, %d)",
				s.now, id, r.wake, r.structural, hazT, structT)
		}
		asleep := s.sleepers.has(id)
		if s.madSleepers.has(id) != (asleep && r.unit == isa.UnitMAD) {
			t.Fatalf("cycle %d: warp %d (asleep %v, unit %v) has MAD-sleeper bit %v", s.now, id, asleep, r.unit, s.madSleepers.has(id))
		}
		// A sleeper's table is as it was when it fell asleep at from, and
		// a data hazard found then ends after that cycle.
		hazardThen := false
		if asleep {
			_, hazardThen, _, _ = s.sb.Horizon(id, ins, s.srcsOf[pc], slot, mask, r.from-d)
		}
		if s.structSleepers.has(id) != (asleep && !hazardThen) {
			t.Fatalf("cycle %d: warp %d (asleep %v since %d, data hazard then %v) has structural-sleeper bit %v",
				s.now, id, asleep, r.from, hazardThen, s.structSleepers.has(id))
		}
	}
	for base := range s.sleepers {
		if stray := (s.madSleepers[base] | s.structSleepers[base]) &^ s.sleepers[base]; stray != 0 {
			t.Fatalf("cycle %d: warps %#x<<%d filed as MAD or structural sleepers are not asleep", s.now, stray, base*64)
		}
	}
}

// checkIndex requires every ready warp to be filed in exactly one place:
// awake in its unit's and pool's list of the index, under its last
// issue; asleep on the calendar, under its wake cycle; or stale, in
// neither, its record due for the next cycle's fill — so no ready warp
// reaches a walk unfilled. Each list must run in ascending (key, id)
// from its sentinel back to it, its links agreeing both ways, and no
// other warp may be filed.
func checkIndex(t *testing.T, s *SM) {
	t.Helper()
	x := &s.idx
	filed := make([]int, len(s.warps)) // list+1, or 0 when in none
	for l := range numLists {
		end := x.end(l)
		prev := end
		for id := x.next[end]; id != end; prev, id = id, x.next[id] {
			if id < 0 || id >= x.warps || filed[id] != 0 {
				t.Fatalf("cycle %d: list %d links node %d after %d, a second time or not a warp", s.now, l, id, prev)
			}
			filed[id] = l + 1
			if x.prev[id] != prev {
				t.Fatalf("cycle %d: list %d links %d after %d, but its prev is %d", s.now, l, id, prev, x.prev[id])
			}
			key := s.cands[id].lastIssue
			if l == calendar {
				key = s.cands[id].wake
			}
			if x.key[id] != key {
				t.Fatalf("cycle %d: list %d files warp %d under key %d, its record says %d", s.now, l, id, x.key[id], key)
			}
			if prev != end && !x.before(prev, id) {
				t.Fatalf("cycle %d: list %d holds warp %d (key %d) after warp %d (key %d)", s.now, l, id, key, prev, x.key[prev])
			}
		}
		if x.prev[end] != prev {
			t.Fatalf("cycle %d: list %d ends at %d, but its sentinel's prev is %d", s.now, l, prev, x.prev[end])
		}
	}
	for id := range s.warps {
		ready, stale, asleep := s.readySet.has(id), s.stale.has(id), s.sleepers.has(id)
		want := 0 // where a warp outside readySet, or stale, is filed
		switch {
		case asleep:
			want = calendar + 1
		case ready && !stale:
			want = s.listOf(id) + 1
		}
		if filed[id] != want || asleep && (!ready || stale) || stale && !ready {
			t.Fatalf("cycle %d: warp %d (ready %v, stale %v, asleep %v, unit %v) is filed in list %d, want %d (-1: none)",
				s.now, id, ready, stale, asleep, s.cands[id].unit, filed[id]-1, want-1)
		}
	}
}

// checkAwakeClear requires, after a step that issued no primary, that
// every awake warp of readySet holds a record whose scoreboard cleared no
// later than walked, the cycle of the step's primary walk. That is the
// premise on which substitute and accountIdle count an awake warp's
// probes as Checks alone.
func checkAwakeClear(t *testing.T, s *SM, walked int64) {
	t.Helper()
	for base, word := range s.readySet {
		for word &^= s.sleepers[base]; word != 0; word &= word - 1 {
			id := base<<6 | bits.TrailingZeros64(word)
			if r := &s.cands[id]; s.stale.has(id) || r.wake > walked {
				t.Fatalf("cycle %d issued no primary, but awake warp %d holds record (stale %v) stalling until %d", walked, id, s.stale.has(id), r.wake)
			}
		}
	}
}

// checkNoSubstitute re-probes, without ticking a counter, the buddy set
// the SWI substitute search probed in cycle walked, a cycle that issued
// no primary, and requires that no warp there could have issued. That
// is the premise on which the substitute search keeps no issue path
// (see cycle): no event ran since the search, so the records and units
// it saw are the ones read here.
func checkNoSubstitute(t *testing.T, s *SM, walked int64) {
	t.Helper()
	for base, word := range s.setBits[int(walked)%s.lookup.NumSets()] {
		for word &= s.readySet[base]; word != 0; word &= word - 1 {
			id := base<<6 | bits.TrailingZeros64(word)
			r := &s.cands[id]
			if s.stale.has(id) {
				t.Fatalf("cycle %d: warp %d of the substitute's buddy set holds a stale record", walked, id)
			}
			if walked >= r.wake && s.units.canIssue(r.unit, r.lane, walked) {
				t.Fatalf("cycle %d issued no primary, but warp %d of the substitute's buddy set could issue", walked, id)
			}
		}
	}
}

// stepCoherent runs the launch to completion, checking every record and
// every sleeper against a fresh computation after every step — after a
// step which issued no primary also that every awake warp's scoreboard
// was clear and, on SWI architectures, that the substitute search had
// nothing to issue — then calling after, if not nil,
// and that the run ends with no sleeper left to settle. It returns the
// finished SM.
func stepCoherent(t *testing.T, c Config, l *exec.Launch, after func(*SM)) *SM {
	t.Helper()
	r, err := NewRunner(c, l, 0, l.GridDim, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	s := &r.s
	for {
		walked, primaries := s.now, s.stats.PrimaryIssues
		done, err := s.step(1 << 30)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			for _, word := range s.sleepers {
				if word != 0 {
					t.Fatalf("run ended with sleepers %#x unsettled", word)
				}
			}
			return s
		}
		checkCandCache(t, s, walked)
		if s.stats.PrimaryIssues == primaries {
			checkAwakeClear(t, s, walked)
			if s.setBits != nil {
				checkNoSubstitute(t, s, walked)
			}
		}
		if after != nil {
			after(s)
		}
	}
}

// TestCandidateCacheCoherent pins the cache's invalidation rule — only
// the warp's own events (refreshWarp) can change its record, and none
// reaches a sleeper — after every step.
func TestCandidateCacheCoherent(t *testing.T) {
	loop := func(a Arch) *exec.Launch {
		return newLaunch(assembleFor(t, "loop", shortLoopSrc, a), 4, 256, 4*256, 0)
	}
	memIdle := func(a Arch) *exec.Launch {
		return newLaunch(assembleFor(t, "mem", shortMemSrc, a), 4, 256, 4*256+65536, 0, 4*256*4)
	}
	for _, a := range Architectures() {
		t.Run(a.String(), func(t *testing.T) {
			stepCoherent(t, Configure(a), loop(a), nil)
			stepCoherent(t, Configure(a), memIdle(a), nil)
			for seed := uint64(1); seed <= 4; seed++ {
				stepCoherent(t, Configure(a), benchLaunch(t, progen.Kernel(seed, 6, 2, 192), a), nil)
			}
		})
	}
	for _, v := range []struct {
		name string
		arch Arch
		mut  func(*Config)
	}{
		{"mem-split", ArchSBISWI, func(c *Config) { c.SplitOnMemDivergence = true }},
		{"dep-mask", ArchSBISWI, func(c *Config) { c.DepMode = sched.DepMask }},
		{"dep-warp", ArchSBI, func(c *Config) { c.DepMode = sched.DepWarp }},
		{"mirror-odd", ArchSBI, func(c *Config) { c.Shuffle = sched.ShuffleMirrorOdd }},
		{"sb-entries-2", ArchSBISWI, func(c *Config) { c.ScoreboardEntries = 2 }},
		{"sb-entries-1", ArchSWI, func(c *Config) { c.ScoreboardEntries = 1 }}, // structural sleepers
	} {
		t.Run(v.name, func(t *testing.T) {
			c := Configure(v.arch)
			v.mut(&c)
			stepCoherent(t, c, loop(v.arch), nil)
			stepCoherent(t, c, memIdle(v.arch), nil)
		})
	}
}

// TestSleeperWakesInsideIdleSpan is the case the idle-span accounting
// must split: the mem-idle kernel's loads take one LSU transaction per
// thread, so a warp sleeping on the address it is about to load from
// sees its hazard clear inside a fast-forwarded span while the LSU is
// still busy. Its settlement owns the span up to the wake cycle and
// accountIdle the probes from there on; dropping the sleeper from the
// whole span loses those Checks. The counters are the ones the per-cycle
// rescan of every ready warp produced, recorded before the walk slept.
func TestSleeperWakesInsideIdleSpan(t *testing.T) {
	for _, want := range []struct {
		arch                       Arch
		checks, stalls, structural uint64
	}{
		{ArchBaseline, 3260405, 1511744, 0},
		{ArchSBI, 1651468, 587236, 0},
		{ArchSWI, 3148006, 1121414, 0},
		{ArchSBISWI, 3152425, 1125834, 0},
		{ArchWarp64, 1646712, 582372, 0},
	} {
		t.Run(want.arch.String(), func(t *testing.T) {
			l := newLaunch(assembleFor(t, "mem", shortMemSrc, want.arch), 4, 256, 4*256+65536, 0, 4*256*4)
			wokeInside := 0
			s := stepCoherent(t, Configure(want.arch), l, func(s *SM) {
				for id := range s.cands {
					// A span the step skipped ended at s.now-1.
					if r := &s.cands[id]; s.sleepers.has(id) && r.wake < s.now && s.units.freeAt(r.unit) >= s.now {
						wokeInside++
					}
				}
			})
			if wokeInside == 0 {
				t.Error("no sleeper's wake cycle fell inside an idle span with its unit busy to the end: the kernel no longer builds the case")
			}
			if st := s.sb.Stats; st.Checks != want.checks || st.Stalls != want.stalls || st.Structural != want.structural {
				t.Errorf("scoreboard counters %d/%d/%d, the per-cycle rescan counted %d/%d/%d",
					st.Checks, st.Stalls, st.Structural, want.checks, want.stalls, want.structural)
			}
		})
	}
}

// TestSWICountsSleepersProbes pins the probes the SWI searches count for
// sleepers without visiting them, where each kind of sleeper occurs: a
// one-entry scoreboard fills on every destination write, so sleepers
// stall structurally as well as on data hazards, and the divergent loop
// keeps MAD sleepers beside MAD primaries, whose colliding lanes the
// buddy search skips unprobed. The counters are the ones the search that
// probed every sleeper produced.
func TestSWICountsSleepersProbes(t *testing.T) {
	for _, want := range []struct {
		kernel                     string
		arch                       Arch
		checks, stalls, structural uint64
	}{
		{"loop", ArchSWI, 853539, 499149, 57044},
		{"loop", ArchSBISWI, 840860, 507213, 63203},
		{"mem", ArchSWI, 3148041, 1158242, 35600},
		{"mem", ArchSBISWI, 3152412, 1162615, 35600},
	} {
		t.Run(want.kernel+"/"+want.arch.String(), func(t *testing.T) {
			l := newLaunch(assembleFor(t, "loop", shortLoopSrc, want.arch), 4, 256, 4*256, 0)
			if want.kernel == "mem" {
				l = newLaunch(assembleFor(t, "mem", shortMemSrc, want.arch), 4, 256, 4*256+65536, 0, 4*256*4)
			}
			c := Configure(want.arch)
			c.ScoreboardEntries = 1
			res, err := Run(c, l)
			if err != nil {
				t.Fatal(err)
			}
			if st := res.Stats; st.ScoreboardChecks != want.checks || st.ScoreboardStalls != want.stalls || st.StructuralStalls != want.structural {
				t.Errorf("scoreboard counters %d/%d/%d, probing every sleeper counted %d/%d/%d",
					st.ScoreboardChecks, st.ScoreboardStalls, st.StructuralStalls, want.checks, want.stalls, want.structural)
			}
		})
	}
}
