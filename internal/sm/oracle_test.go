package sm

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/progen"
	"repro/internal/sched"
)

// The selection oracle: the issue walk as the seed wrote it, a rescan of
// every warp context every cycle. It shares the SM's issue, reconvergence,
// scoreboard tables and memory system with the fast walk, and replaces
// everything the walk caches: each cycle it re-derives every warp's
// schedulability and primary split from the warp itself, asks
// Scoreboard.ReadyAt afresh at every probe — so the counters tick once per
// probe, where the probe happens — keeps no sleepers and never
// fast-forwards. The fast walk must match it on every Stats field.

// rescan is one oracle run: the SM it drives and, per hazard, how often
// the run built it.
type rescan struct {
	t        *testing.T
	s        *SM
	issuedAt []int64 // per warp: the cycle of its last issue
	stallAt  []int64 // per warp: the last cycle its primary probe stalled
	idleNow  bool    // no issue so far in the current cycle
	idlePrev bool    // the previous cycle issued nothing
	slotWas  []int8  // per heap warp: its primary slot at its last probe, -1 before
	inSpan   []int   // this cycle's candidates for witnessWakeInSpan
	seen     [numWitnesses]int
}

// The hazards the fast walk's bookkeeping must get right, as the oracle
// sees them happen.
const (
	// witnessFreshBuddy: the SWI search beside a primary probes a buddy
	// that issued in the cycle before and finds it stalled.
	witnessFreshBuddy = iota
	// witnessBothPools: both Baseline pools issue in one cycle, the second
	// after the first changed the units.
	witnessBothPools
	// witnessWakeInSpan: a warp stalled by the scoreboard in an idle cycle
	// is clear in the next, also idle, cycle with its unit still busy.
	witnessWakeInSpan
	// witnessSlotSwitch: a schedulable heap warp's primary slot differs
	// from the one it had at its previous probe.
	witnessSlotSwitch
	// witnessSharedRow: the second Baseline pool issues a MAD instruction
	// by sharing the row, every group taken that cycle.
	witnessSharedRow
	numWitnesses
)

var witnessNames = [numWitnesses]string{"fresh SWI buddy", "both pools issue", "wake inside an idle span", "primary slot switch", "shared MAD row"}

// primaryOf re-derives, from the warp alone, whether the front-end would
// schedule it and which split it follows.
func (o *rescan) primaryOf(w *warp) (slot, pc int, mask uint64, last int64, ok bool) {
	if w.block == nil || w.atBarrier {
		return 0, 0, 0, 0, false
	}
	if w.heap != nil {
		if w.heap.Done() {
			return 0, 0, 0, 0, false
		}
		if w.heap.Suspended(0) {
			slot = 1
		}
		if !w.heap.Eligible(slot) {
			return 0, 0, 0, 0, false
		}
		c := w.heap.Slot(slot)
		return slot, c.PC, c.Mask, c.LastIssue, true
	}
	pc, mask, live := w.stack.Active()
	return 0, pc, mask, w.lastIssue, live
}

// clear is one scoreboard probe: a fresh ReadyAt, ticking its counters.
func (o *rescan) clear(w *warp, slot, pc int, mask uint64) bool {
	s := o.s
	q := s.now - s.cfg.IssueDelay
	return s.sb.ReadyAt(w.id, s.prog.At(pc), s.srcsOf[pc], slot, mask, q) <= q
}

func (o *rescan) issue(c *candidate, secondary bool, p prov) error {
	o.issuedAt[c.w.id] = o.s.now
	o.idleNow = false
	return o.s.issue(c, secondary, p)
}

// selectPrimary is the oldest-first walk over every warp of the pool in
// ascending id.
func (o *rescan) selectPrimary(pool int, out *candidate) bool {
	s := o.s
	found := false
	var bestAge int64
	for _, w := range s.warps {
		if s.cfg.pools() == 2 && w.id&1 != pool {
			continue
		}
		slot, pc, mask, last, ok := o.primaryOf(w)
		if !ok {
			continue
		}
		if w.heap != nil {
			if o.slotWas[w.id] >= 0 && int(o.slotWas[w.id]) != slot {
				o.seen[witnessSlotSwitch]++
			}
			o.slotWas[w.id] = int8(slot)
		}
		ins := s.prog.At(pc)
		lane := w.lanes.Mask(mask)
		if !o.clear(w, slot, pc, mask) {
			o.stallAt[w.id] = s.now
			continue
		}
		if !s.units.canIssue(ins.Op.Unit(), lane, s.now) {
			if o.idlePrev && o.stallAt[w.id] == s.now-1 {
				o.inSpan = append(o.inSpan, w.id)
			}
			continue
		}
		if !found || last < bestAge {
			found, bestAge = true, last
			*out = candidate{w: w, slot: slot, pc: pc, mask: mask, lane: lane, ins: ins}
		}
	}
	return found
}

// swiSecondary is the buddy-set search beside a primary of warp exclude:
// every warp of the set in ascending id, the MAD row's lane filter before
// the probe, best fit with a pseudo-random tie-break.
func (o *rescan) swiSecondary(setIdx, exclude int, primUnit isa.Unit, primLane uint64, out *candidate) bool {
	s := o.s
	set := s.lookup.SetWarps(setIdx)
	var ties []candidate
	bestFit := -1
	for _, w := range s.warps {
		if w.id == exclude || !slices.Contains(set, w.id) {
			continue
		}
		slot, pc, mask, _, ok := o.primaryOf(w)
		if !ok {
			continue
		}
		ins := s.prog.At(pc)
		lane := w.lanes.Mask(mask)
		if primUnit == isa.UnitMAD && ins.Op.Unit() == isa.UnitMAD && lane&primLane != 0 {
			continue
		}
		if !o.clear(w, slot, pc, mask) {
			if o.issuedAt[w.id] == s.now-1 {
				o.seen[witnessFreshBuddy]++
			}
			continue
		}
		if !s.units.canIssue(ins.Op.Unit(), lane, s.now) {
			continue
		}
		c := candidate{w: w, slot: slot, pc: pc, mask: mask, lane: lane, ins: ins}
		switch fit := popcount(lane); {
		case fit > bestFit:
			ties, bestFit = append(ties[:0], c), fit
		case fit == bestFit:
			ties = append(ties, c)
		}
	}
	switch len(ties) {
	case 0:
		return false
	case 1:
		*out = ties[0]
	default:
		*out = ties[s.rng.Intn(len(ties))]
	}
	return true
}

// substitute probes every warp of buddy set setIdx in a cycle with no
// primary issue. The model gives it no issue path, so none of them may
// be issuable.
func (o *rescan) substitute(setIdx int) {
	s := o.s
	set := s.lookup.SetWarps(setIdx)
	for _, w := range s.warps {
		if !slices.Contains(set, w.id) {
			continue
		}
		slot, pc, mask, _, ok := o.primaryOf(w)
		if !ok {
			continue
		}
		if o.clear(w, slot, pc, mask) && s.units.canIssue(s.prog.At(pc).Op.Unit(), w.lanes.Mask(mask), s.now) {
			o.t.Fatalf("cycle %d: the substitute search could issue warp %d, which the model drops", s.now, w.id)
		}
	}
}

// cycle is SM.cycle with the walks above in place of the cached ones.
func (o *rescan) cycle() error {
	s := o.s
	var prim candidate
	if s.cfg.Arch == ArchBaseline {
		for pool := 0; pool < s.cfg.pools(); pool++ {
			if !o.selectPrimary(pool, &prim) {
				continue
			}
			if pool == 1 && !o.idleNow {
				o.seen[witnessBothPools]++
				if prim.ins.Op.Unit() == isa.UnitMAD && s.units.freeAt(isa.UnitMAD) > s.now {
					o.seen[witnessSharedRow]++
				}
			}
			if err := o.issue(&prim, false, provNone); err != nil {
				return err
			}
		}
		return nil
	}
	if !o.selectPrimary(0, &prim) {
		if s.setBits != nil {
			o.substitute(int(s.now) % s.lookup.NumSets())
		}
		return nil
	}
	pw := prim.w
	primPC, primMask, primLane, primIns := prim.pc, prim.mask, prim.lane, prim.ins
	var secPC int
	var secMask uint64
	haveSec := false
	if s.cfg.hotSlots() == 2 {
		if other := 1 - prim.slot; pw.heap.Eligible(other) {
			c2 := pw.heap.Slot(other)
			secPC, secMask, haveSec = c2.PC, c2.Mask, true
		}
	}
	if err := o.issue(&prim, false, provNone); err != nil {
		return err
	}
	if !s.cfg.hasSecondary() {
		return nil
	}
	var sec candidate
	if haveSec && s.sbiCandidate(pw, secPC, secMask, s.divergenceCapable(primIns), &sec) {
		return o.issue(&sec, true, provSBI)
	}
	if (s.cfg.Arch == ArchSWI || s.cfg.Arch == ArchSBISWI) &&
		o.swiSecondary(s.lookup.SetOf(pw.id), pw.id, primIns.Op.Unit(), primLane, &sec) {
		return o.issue(&sec, true, provSWI)
	}
	if (s.cfg.Arch == ArchSBI || s.cfg.Arch == ArchSBISWI) && s.seqCandidate(pw, primIns, primPC, primMask, &sec) {
		return o.issue(&sec, true, provSeq)
	}
	return nil
}

// run steps the launch to completion one cycle at a time.
func (o *rescan) run(maxCycles int64) (*Result, error) {
	s := o.s
	for {
		s.retireBlocks()
		s.launchBlocks()
		if s.done() {
			return s.result(), nil
		}
		s.releaseBarriers()
		o.idleNow, o.inSpan = true, o.inSpan[:0]
		if err := o.cycle(); err != nil {
			return nil, err
		}
		if o.idleNow {
			o.seen[witnessWakeInSpan] += len(o.inSpan)
		}
		o.idlePrev = o.idleNow
		s.now++
		if s.now > maxCycles {
			return nil, s.livelockErr(maxCycles)
		}
	}
}

// runRescan runs l on c through the oracle.
func runRescan(t *testing.T, c Config, l *exec.Launch) (*Result, [numWitnesses]int) {
	t.Helper()
	r, err := NewRunner(c, l, 0, l.GridDim, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	n := c.NumWarps
	o := &rescan{t: t, s: &r.s, issuedAt: make([]int64, n), stallAt: make([]int64, n), slotWas: make([]int8, n)}
	for i := range o.slotWas {
		o.issuedAt[i], o.stallAt[i], o.slotWas[i] = -2, -2, -1
	}
	res, err := o.run(r.max)
	if err != nil {
		t.Fatal(err)
	}
	return res, o.seen
}

// statsDiff names every Stats field on which got and want differ.
func statsDiff(got, want Stats) string {
	var out bytes.Buffer
	var walk func(prefix string, g, w reflect.Value)
	walk = func(prefix string, g, w reflect.Value) {
		if g.Kind() == reflect.Struct {
			for i := 0; i < g.NumField(); i++ {
				walk(prefix+g.Type().Field(i).Name+".", g.Field(i), w.Field(i))
			}
			return
		}
		if !g.Equal(w) {
			fmt.Fprintf(&out, "\n  %s walk %v, rescan %v", prefix[:len(prefix)-1], g, w)
		}
	}
	walk("", reflect.ValueOf(got), reflect.ValueOf(want))
	return out.String()
}

// oracleRow is one launch on one configuration; mk builds it anew.
type oracleRow struct {
	name    string
	cfg     Config
	mk      func() *exec.Launch
	witness int // a hazard the row must build, or -1
}

// oracleRows lists the suite on all five architectures, generated
// kernels on all five, the suite on SWI with a one-entry scoreboard
// (structural stalls everywhere), the configuration variants of
// TestCandidateCacheCoherent, and one named row per hazard.
func oracleRows(t *testing.T) []oracleRow {
	var rows []oracleRow
	add := func(name string, c Config, b *kernels.Benchmark, a Arch) {
		rows = append(rows, oracleRow{name, c, func() *exec.Launch { return benchLaunch(t, b, a) }, -1})
	}
	for _, a := range Architectures() {
		for _, b := range kernels.All() {
			add("suite/"+a.String()+"/"+b.Name, Configure(a), b, a)
		}
		for _, b := range progen.Kernels(32) {
			add("gen/"+a.String()+"/"+b.Name, Configure(a), b, a)
		}
	}
	for _, b := range kernels.All() {
		c := Configure(ArchSWI)
		c.ScoreboardEntries = 1
		add("sb-entries-1/"+b.Name, c, b, ArchSWI)
	}
	loop := func(a Arch) func() *exec.Launch {
		p := assembleFor(t, "loop", shortLoopSrc, a)
		return func() *exec.Launch { return newLaunch(p, 4, 256, 4*256, 0) }
	}
	memIdle := func(a Arch) func() *exec.Launch {
		p := assembleFor(t, "mem", shortMemSrc, a)
		return func() *exec.Launch { return newLaunch(p, 4, 256, 4*256+65536, 0, 4*256*4) }
	}
	runAhead := func(a Arch) func() *exec.Launch {
		p := assembleFor(t, "ludlike", runAheadBarrierSrc, a)
		return func() *exec.Launch { return newLaunch(p, 2, 256, 2*256+64, 0, uint32(2*256*4)) }
	}
	mandelbrot, _ := kernels.ByName("Mandelbrot")
	sharedRow := Configure(ArchBaseline)
	sharedRow.MADGroups = 1 // pool 1 finds the one group taken by pool 0
	noConstraints := Configure(ArchSBI)
	noConstraints.Constraints = false // run-ahead splits park at the barrier
	for _, v := range []struct {
		name string
		arch Arch
		mut  func(*Config)
	}{
		{"mem-split", ArchSBISWI, func(c *Config) { c.SplitOnMemDivergence = true }},
		{"dep-mask", ArchSBISWI, func(c *Config) { c.DepMode = sched.DepMask }},
		{"dep-warp", ArchSBI, func(c *Config) { c.DepMode = sched.DepWarp }},
		{"mirror-odd", ArchSBI, func(c *Config) { c.Shuffle = sched.ShuffleMirrorOdd }},
		{"assoc-1", ArchSBISWI, func(c *Config) { c.Assoc = 1 }},
	} {
		c := Configure(v.arch)
		v.mut(&c)
		rows = append(rows, oracleRow{"variant/" + v.name + "/loop", c, loop(v.arch), -1},
			oracleRow{"variant/" + v.name + "/mem", c, memIdle(v.arch), -1})
	}
	rows = append(rows,
		oracleRow{"hazard/fresh-swi-buddy", Configure(ArchSWI), loop(ArchSWI), witnessFreshBuddy},
		oracleRow{"hazard/baseline-pools", Configure(ArchBaseline), loop(ArchBaseline), witnessBothPools},
		oracleRow{"hazard/baseline-shared-row", sharedRow, func() *exec.Launch { return benchLaunch(t, mandelbrot, ArchBaseline) }, witnessSharedRow},
		oracleRow{"hazard/wake-in-idle-span", Configure(ArchSBISWI), memIdle(ArchSBISWI), witnessWakeInSpan},
		oracleRow{"hazard/primary-slot-switch", noConstraints, runAhead(ArchSBI), witnessSlotSwitch},
	)
	return rows
}

// TestWalkMatchesRescan holds the issue walk to the selection oracle on
// every Stats field and the final memory image, and requires each hazard
// row to build its hazard.
func TestWalkMatchesRescan(t *testing.T) {
	for _, row := range oracleRows(t) {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			l := row.mk()
			got, err := Run(row.cfg, l)
			if err != nil {
				t.Fatal(err)
			}
			ol := row.mk()
			want, seen := runRescan(t, row.cfg, ol)
			if d := statsDiff(got.Stats, want.Stats); d != "" {
				t.Errorf("the walk's Stats differ from the per-cycle rescan's:%s", d)
			}
			if !bytes.Equal(l.Global, ol.Global) {
				t.Error("the walk's memory image differs from the per-cycle rescan's")
			}
			if row.witness >= 0 && seen[row.witness] == 0 {
				t.Errorf("the launch never builds its hazard (%s): %v", witnessNames[row.witness], seen)
			}
		})
	}
}
