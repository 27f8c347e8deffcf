package sm

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/progen"
	"repro/internal/sched"
)

// checkCandCache recomputes every filled issue-candidate record from the
// warp's heap or stack and a fresh Horizon at the current cycle. Fields
// must match exactly; the thresholds must give the same verdict at every
// cycle from s.now on (a threshold already in the past and a missing one
// are the same answer).
func checkCandCache(t *testing.T, s *SM) {
	t.Helper()
	d := s.cfg.IssueDelay
	for id := range s.cands {
		r := s.cands[id]
		if !r.valid {
			continue
		}
		if s.readySet[id>>6]>>uint(id&63)&1 == 0 {
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
		hi, wantHi := max(r.structT, lo), max(structT, wantLo)
		if lo != wantLo || hi != wantHi {
			t.Fatalf("cycle %d: warp %d cached thresholds (%d, %d) stall until %d/%d, fresh (%d, %d) until %d/%d",
				s.now, id, r.hazT, r.structT, lo, hi, hazT, structT, wantLo, wantHi)
		}
	}
}

// TestCandidateCacheCoherent pins the cache's invalidation rule — only
// the warp's own events (refreshWarp) can change its record — by
// checking every record against a fresh computation after every step.
func TestCandidateCacheCoherent(t *testing.T) {
	run := func(t *testing.T, c Config, l *exec.Launch) {
		t.Helper()
		r, err := NewRunner(c, l, 0, l.GridDim, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		s := &r.s
		for {
			done, err := s.step(1 << 30)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				return
			}
			checkCandCache(t, s)
		}
	}
	loop := func(a Arch) *exec.Launch {
		return newLaunch(assembleFor(t, "loop", shortLoopSrc, a), 4, 256, 4*256, 0)
	}
	memIdle := func(a Arch) *exec.Launch {
		return newLaunch(assembleFor(t, "mem", shortMemSrc, a), 4, 256, 4*256+65536, 0, 4*256*4)
	}
	for _, a := range Architectures() {
		t.Run(a.String(), func(t *testing.T) {
			run(t, Configure(a), loop(a))
			run(t, Configure(a), memIdle(a))
			for seed := uint64(1); seed <= 4; seed++ {
				gen := progen.New(seed)
				if _, err := gen.Program("fuzz", 6); err != nil {
					t.Fatal(err)
				}
				p := assembleFor(t, "fuzz", gen.Source(), a)
				run(t, Configure(a), &exec.Launch{Prog: p, GridDim: 2, BlockDim: 192, Global: make([]byte, 2*192*4)})
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
	} {
		t.Run(v.name, func(t *testing.T) {
			c := Configure(v.arch)
			v.mut(&c)
			run(t, c, loop(v.arch))
			run(t, c, memIdle(v.arch))
		})
	}
}
