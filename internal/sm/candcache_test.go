package sm

import (
	"math/bits"
	"testing"

	"repro/internal/exec"
	"repro/internal/progen"
	"repro/internal/sched"
)

// checkCandCache recomputes every filled issue-candidate record from the
// warp's heap or stack and a fresh Horizon at the current cycle. Fields
// must match exactly; the thresholds must give the same verdict at every
// cycle from s.now on (a threshold already in the past and a missing one
// are the same answer). A sleeper is a ready warp holding such a record —
// so the fresh Horizon still says stalled until its wake cycle — that
// slept no later than walked, the cycle of the step's primary walk, wakes
// after it, and that nextWake will not let the walk pass over.
func checkCandCache(t *testing.T, s *SM, walked int64) {
	t.Helper()
	d := s.cfg.IssueDelay
	for id := range s.cands {
		r := s.cands[id]
		if asleep := s.sleepers.has(id); asleep && !r.valid {
			t.Fatalf("cycle %d: sleeper %d holds no record", s.now, id)
		} else if asleep && (r.wake <= walked || r.from > walked+1 || s.nextWake > r.wake) {
			t.Fatalf("cycle %d: sleeper %d sleeps [%d, %d) with nextWake %d after the walk of cycle %d",
				s.now, id, r.from, r.wake, s.nextWake, walked)
		}
		if !r.valid {
			continue
		}
		if !s.readySet.has(id) {
			t.Fatalf("cycle %d: warp %d holds a record outside readySet", s.now, id)
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
		if int(r.pc) != pc || r.mask != mask || r.lane != w.laneMask(mask) || r.unit != ins.Op.Unit() || r.lastIssue != last {
			t.Fatalf("cycle %d: warp %d record {pc %d mask %#x lane %#x unit %v last %d}, warp state {pc %d mask %#x lane %#x unit %v last %d}",
				s.now, id, r.pc, r.mask, r.lane, r.unit, r.lastIssue, pc, mask, w.laneMask(mask), ins.Op.Unit(), last)
		}
		hazT, structT := int64(negInf), int64(negInf)
		hazWB, hasHaz, structWB, hasStruct := s.sb.Horizon(id, ins, s.srcsOf[pc], slot, mask, s.now-d)
		if hasHaz {
			hazT = hazWB + d
		}
		if hasStruct {
			structT = structWB + d
		}
		// From s.now on: hazard stall on [s.now, lo), structural on [lo, hi).
		lo, wantLo := max(r.hazT, s.now), max(hazT, s.now)
		hi, wantHi := max(r.wake, lo), max(structT, wantLo)
		if lo != wantLo || hi != wantHi {
			t.Fatalf("cycle %d: warp %d cached thresholds (%d, %d) stall until %d/%d, fresh (%d, %d) until %d/%d",
				s.now, id, r.hazT, r.wake, lo, hi, hazT, structT, wantLo, wantHi)
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
			if !r.valid {
				t.Fatalf("cycle %d: warp %d of the substitute's buddy set holds no record", walked, id)
			}
			if walked >= r.wake && s.units.canIssue(r.unit, r.lane, walked) {
				t.Fatalf("cycle %d issued no primary, but warp %d of the substitute's buddy set could issue", walked, id)
			}
		}
	}
}

// stepCoherent runs the launch to completion, checking every record and
// every sleeper against a fresh computation after every step — on SWI
// architectures also that a step which issued no primary left the
// substitute search nothing to issue — then calling after, if not nil,
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
		if s.setBits != nil && s.stats.PrimaryIssues == primaries {
			checkNoSubstitute(t, s, walked)
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
				gen := progen.New(seed)
				if _, err := gen.Program("fuzz", 6); err != nil {
					t.Fatal(err)
				}
				p := assembleFor(t, "fuzz", gen.Source(), a)
				stepCoherent(t, Configure(a), &exec.Launch{Prog: p, GridDim: 2, BlockDim: 192, Global: make([]byte, 2*192*4)}, nil)
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
