package sched

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/statcheck"
)

func mkIns(op isa.Opcode, dst, a, b isa.Reg) *isa.Instruction {
	return &isa.Instruction{Op: op, Dst: dst, SrcA: a, SrcB: b, SrcC: isa.RegNone}
}

func srcsOf(ins *isa.Instruction) []isa.Reg { return ins.SrcRegs(nil) }

func TestScoreboardRAW(t *testing.T) {
	sb := NewScoreboard(DepWarp, 4, 6)
	prod := mkIns(isa.OpIAdd, 1, 2, 3)
	sb.Issue(0, prod, 0, 0xF, 100)

	cons := mkIns(isa.OpIMul, 4, 1, 5) // reads r1
	if got := sb.ReadyAt(0, cons, srcsOf(cons), 0, 0xF, 10); got != 100 {
		t.Errorf("RAW ReadyAt = %d, want 100", got)
	}
	// After writeback the dependency clears.
	if got := sb.ReadyAt(0, cons, srcsOf(cons), 0, 0xF, 100); got != 100 {
		t.Errorf("post-WB ReadyAt = %d, want 100", got)
	}
}

func TestScoreboardWAW(t *testing.T) {
	sb := NewScoreboard(DepWarp, 4, 6)
	sb.Issue(0, mkIns(isa.OpIAdd, 1, 2, 3), 0, 0xF, 50)
	w := mkIns(isa.OpIMul, 1, 4, 5) // writes r1 again
	if got := sb.ReadyAt(0, w, srcsOf(w), 0, 0xF, 10); got != 50 {
		t.Errorf("WAW ReadyAt = %d, want 50", got)
	}
}

func TestScoreboardIndependentRegsDontStall(t *testing.T) {
	sb := NewScoreboard(DepWarp, 4, 6)
	sb.Issue(0, mkIns(isa.OpIAdd, 1, 2, 3), 0, 0xF, 50)
	ind := mkIns(isa.OpIMul, 4, 5, 6)
	if got := sb.ReadyAt(0, ind, srcsOf(ind), 0, 0xF, 10); got != 10 {
		t.Errorf("independent ReadyAt = %d, want 10", got)
	}
}

func TestScoreboardOtherWarpUnaffected(t *testing.T) {
	sb := NewScoreboard(DepWarp, 4, 6)
	sb.Issue(0, mkIns(isa.OpIAdd, 1, 2, 3), 0, 0xF, 50)
	cons := mkIns(isa.OpIMul, 4, 1, 5)
	if got := sb.ReadyAt(1, cons, srcsOf(cons), 0, 0xF, 10); got != 10 {
		t.Errorf("other warp ReadyAt = %d, want 10", got)
	}
}

func TestScoreboardStructuralLimit(t *testing.T) {
	sb := NewScoreboard(DepWarp, 1, 2)
	sb.Issue(0, mkIns(isa.OpIAdd, 1, 9, 9), 0, 0xF, 30)
	sb.Issue(0, mkIns(isa.OpIAdd, 2, 9, 9), 0, 0xF, 40)
	ind := mkIns(isa.OpIMul, 3, 8, 8)
	// Table is full: must wait for the earliest writeback (30).
	if got := sb.ReadyAt(0, ind, srcsOf(ind), 0, 0xF, 10); got != 30 {
		t.Errorf("structural ReadyAt = %d, want 30", got)
	}
	if sb.Stats.Structural == 0 {
		t.Error("structural stall not counted")
	}
	// Instructions without a destination (stores) need no entry.
	st := &isa.Instruction{Op: isa.OpStG, Dst: isa.RegNone, SrcA: 8, SrcC: 8}
	if got := sb.ReadyAt(0, st, srcsOf(st), 0, 0xF, 10); got != 10 {
		t.Errorf("store ReadyAt = %d, want 10", got)
	}
	sb.Issue(0, st, 0, 0xF, 50)
	if n := sb.InFlight(0, 10); n != 2 {
		t.Errorf("a store allocated an entry: %d in flight, want 2", n)
	}
}

func TestScoreboardMatrixDisjointSplits(t *testing.T) {
	// Producer issued from slot 0; the secondary split (slot 1) holds
	// disjoint threads, so in matrix mode the consumer from slot 1 must
	// NOT stall, while in warp mode it must.
	mk := func(mode DepMode) *Scoreboard {
		sb := NewScoreboard(mode, 1, 6)
		sb.Issue(0, mkIns(isa.OpIAdd, 1, 2, 3), 0, 0x0F, 100)
		return sb
	}
	cons := mkIns(isa.OpIMul, 4, 1, 5)

	if got := mk(DepMatrix).ReadyAt(0, cons, srcsOf(cons), 1, 0xF0, 10); got != 10 {
		t.Errorf("matrix: disjoint split ReadyAt = %d, want 10", got)
	}
	if got := mk(DepWarp).ReadyAt(0, cons, srcsOf(cons), 1, 0xF0, 10); got != 100 {
		t.Errorf("warp: ReadyAt = %d, want 100", got)
	}
	if got := mk(DepMask).ReadyAt(0, cons, srcsOf(cons), 1, 0xF0, 10); got != 10 {
		t.Errorf("mask: disjoint ReadyAt = %d, want 10", got)
	}
}

func TestScoreboardMatrixTransitionPropagates(t *testing.T) {
	sb := NewScoreboard(DepMatrix, 1, 6)
	sb.Issue(0, mkIns(isa.OpIAdd, 1, 2, 3), 0, 0x0F, 100)

	// The producing split's threads move from slot 0 to slot 1 (e.g. a
	// lower-PC split got promoted to primary).
	var swap Matrix
	swap[0][1] = true
	swap[1][0] = true
	swap[2][2] = true
	sb.Transition(0, swap)

	cons := mkIns(isa.OpIMul, 4, 1, 5)
	if got := sb.ReadyAt(0, cons, srcsOf(cons), 1, 0x0F, 10); got != 100 {
		t.Errorf("after swap, slot-1 consumer ReadyAt = %d, want 100", got)
	}
	if got := sb.ReadyAt(0, cons, srcsOf(cons), 0, 0xF0, 10); got != 10 {
		t.Errorf("after swap, slot-0 consumer ReadyAt = %d, want 10", got)
	}
}

func TestTransitionFromMasks(t *testing.T) {
	pre := [3]uint64{0x0F, 0xF0, 0x00}
	post := [3]uint64{0x03, 0x0C, 0xF0} // slot0 split in two, old slot1 went cold
	tr := Transition(pre, post)
	want := Matrix{
		{true, true, false},
		{false, false, true},
		{false, false, false},
	}
	if tr != want {
		t.Errorf("Transition = %v, want %v", tr, want)
	}
}

func TestRowMulIdentity(t *testing.T) {
	r := Row{true, false, true}
	if got := r.Mul(Identity); got != r {
		t.Errorf("r*I = %v", got)
	}
}

// The matrix scoreboard must be conservative with respect to the exact
// mask oracle: whenever the oracle reports a dependency, the matrix
// must too. We replay a random warp-split history against both.
func TestQuickMatrixConservative(t *testing.T) {
	f := func(moves []uint16) bool {
		mx := NewScoreboard(DepMatrix, 1, 16)
		or := NewScoreboard(DepMask, 1, 16)

		// Slot masks: three disjoint groups that random moves permute.
		slots := [3]uint64{0x000F, 0x00F0, 0x0F00}
		issueIdx := 0
		for _, mv := range moves {
			switch mv % 3 {
			case 0: // issue from a random slot
				slot := int(mv>>2) % 3
				reg := isa.Reg(mv>>4) % 8
				ins := mkIns(isa.OpIAdd, reg, 30, 30)
				mx.Issue(0, ins, slot, slots[slot], int64(1000+issueIdx))
				or.Issue(0, ins, slot, slots[slot], int64(1000+issueIdx))
				issueIdx++
			case 1: // move some threads between two slots
				from := int(mv>>2) % 3
				to := int(mv>>4) % 3
				if from == to || slots[from] == 0 {
					continue
				}
				pre := slots
				moved := slots[from] & (slots[from] - 1) // drop lowest set bit... keep rest
				moved = slots[from] &^ moved             // lowest set bit only
				slots[from] &^= moved
				slots[to] |= moved
				mx.Transition(0, Transition(pre, slots))
			case 2: // swap two whole slots
				a := int(mv>>2) % 3
				b := int(mv>>4) % 3
				pre := slots
				slots[a], slots[b] = slots[b], slots[a]
				mx.Transition(0, Transition(pre, slots))
			}
			// Probe: every (slot, reg) candidate the oracle blocks, the
			// matrix must block at least as long.
			for slot := 0; slot < 3; slot++ {
				if slots[slot] == 0 {
					continue
				}
				for reg := isa.Reg(0); reg < 8; reg++ {
					cand := mkIns(isa.OpIMul, 20, reg, 21)
					oracle := or.ReadyAt(0, cand, srcsOf(cand), slot, slots[slot], 0)
					matrix := mx.ReadyAt(0, cand, srcsOf(cand), slot, slots[slot], 0)
					if matrix < oracle {
						return false // missed a true dependency
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestScoreboardInFlight(t *testing.T) {
	sb := NewScoreboard(DepWarp, 1, 6)
	sb.Issue(0, mkIns(isa.OpIAdd, 1, 2, 3), 0, 1, 20)
	sb.Issue(0, mkIns(isa.OpIAdd, 2, 2, 3), 0, 1, 40)
	if got := sb.InFlight(0, 10); got != 2 {
		t.Errorf("InFlight = %d, want 2", got)
	}
	if got := sb.InFlight(0, 30); got != 1 {
		t.Errorf("InFlight after first WB = %d, want 1", got)
	}
	if got := sb.InFlight(0, 50); got != 0 {
		t.Errorf("InFlight after all WB = %d, want 0", got)
	}
}

// Horizon's contract, which the SM's issue-candidate cache rests on: the
// two writeback times from one call at q decide every ReadyAt verdict —
// and which counters it ticks — at any later query time, as long as no
// Issue intervenes; and pruning dead entries first changes nothing.
func TestHorizonPredictsReadyAt(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 0))
	for _, mode := range []DepMode{DepWarp, DepMatrix, DepMask} {
		for iter := 0; iter < 300; iter++ {
			perWarp := 1 + rng.IntN(6)
			q := int64(rng.IntN(40))
			type write struct {
				ins  *isa.Instruction
				slot int
				mask uint64
				wb   int64
			}
			writes := make([]write, rng.IntN(perWarp+3)) // up to two past full, as dead entries allow
			for i := range writes {
				writes[i] = write{mkIns(isa.OpIAdd, isa.Reg(rng.IntN(6)), 30, 30), rng.IntN(3), rng.Uint64() & 0xFF, q - 4 + int64(rng.IntN(30))}
			}
			var tr Matrix
			for i := range tr {
				for j := range tr[i] {
					tr[i][j] = rng.IntN(2) == 0
				}
			}
			build := func() *Scoreboard {
				sb := NewScoreboard(mode, 1, perWarp)
				for _, w := range writes {
					sb.Issue(0, w.ins, w.slot, w.mask, w.wb)
				}
				sb.Transition(0, tr)
				return sb
			}
			cand := mkIns(isa.OpIMul, isa.Reg(rng.IntN(6)), isa.Reg(rng.IntN(6)), isa.Reg(rng.IntN(6)))
			if rng.IntN(4) == 0 {
				cand = &isa.Instruction{Op: isa.OpStG, Dst: isa.RegNone, SrcA: isa.Reg(rng.IntN(6)), SrcC: isa.Reg(rng.IntN(6))}
			}
			srcs, slot, mask := srcsOf(cand), rng.IntN(3), rng.Uint64()&0xFF

			hz := build()
			hazWB, hasHaz, structWB, hasStruct := hz.Horizon(0, cand, srcs, slot, mask, q)
			if hz.Stats != (Stats{}) {
				t.Fatalf("%v iter %d: Horizon touched the statistics: %+v", mode, iter, hz.Stats)
			}
			pruned := build()
			pruned.InFlight(0, q)
			if a, b, c, d := pruned.Horizon(0, cand, srcs, slot, mask, q); a != hazWB || b != hasHaz || c != structWB || d != hasStruct {
				t.Fatalf("%v iter %d: Horizon after pruning = (%d %v %d %v), unpruned (%d %v %d %v)",
					mode, iter, a, b, c, d, hazWB, hasHaz, structWB, hasStruct)
			}
			if !hasHaz {
				hazWB = math.MinInt64
			}
			if !hasStruct {
				structWB = math.MinInt64
			}

			running := hz // ascending queries on the table Horizon itself pruned
			for q2 := q; q2 < q+32; q2++ {
				for _, sb := range []*Scoreboard{build(), running} {
					before := sb.Stats
					stalled := sb.ReadyAt(0, cand, srcs, slot, mask, q2) > q2
					if want := q2 < max(hazWB, structWB); stalled != want {
						t.Fatalf("%v iter %d: ReadyAt(%d) stalled = %v, Horizon(%d) = (%d, %d) predicts %v",
							mode, iter, q2, stalled, q, hazWB, structWB, want)
					}
					structural := sb.Stats.Structural != before.Structural
					if want := hazWB <= q2 && q2 < structWB; structural != want {
						t.Fatalf("%v iter %d: ReadyAt(%d) structural = %v, Horizon(%d) = (%d, %d) predicts %v",
							mode, iter, q2, structural, q, hazWB, structWB, want)
					}
					if sb.Stats.Checks != before.Checks+1 || (sb.Stats.Stalls != before.Stalls) != stalled {
						t.Fatalf("%v iter %d: ReadyAt(%d) counters %+v -> %+v, stalled %v", mode, iter, q2, before, sb.Stats, stalled)
					}
				}
			}
		}
	}
}

// The SM's issue-candidate record counts a stall as one kind throughout,
// which rests on the bound the structural check keeps: a warp whose
// destination-writing issues are gated as the SM gates them (ReadyAt <=
// now at the issue's own cycle, several issues in one cycle allowed)
// never holds more than perWarp live entries, so whenever Horizon
// reports both a data hazard and a full table, the table frees an entry
// no later than the hazard clears. Seeded random Issue, Prune and
// Transition histories check both.
func TestLiveEntriesStayWithinTable(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 2))
	for _, mode := range []DepMode{DepWarp, DepMatrix, DepMask} {
		for perWarp := 1; perWarp <= 6; perWarp++ {
			sb := NewScoreboard(mode, 1, perWarp)
			slots := [3]uint64{0xFFFF, 0, 0}
			now := int64(0)
			for step := 0; step < 3000; step++ {
				now += int64(rng.IntN(3)) // a step of 0 is a second issue in the same cycle
				switch rng.IntN(4) {
				case 0, 1: // issue from an occupied slot, if the scoreboard lets it
					ins := mkIns(isa.OpIAdd, isa.Reg(rng.IntN(8)), isa.Reg(rng.IntN(8)), 30)
					if slot := rng.IntN(3); slots[slot] != 0 && sb.ReadyAt(0, ins, srcsOf(ins), slot, slots[slot], now) <= now {
						sb.Issue(0, ins, slot, slots[slot], now+1+int64(rng.IntN(40)))
					}
				case 2: // deal the threads out again
					pre := slots
					slots = [3]uint64{}
					for m := uint64(0xFFFF); m != 0; m &= m - 1 {
						slots[min(rng.IntN(4), 2)] |= m &^ (m - 1)
					}
					sb.Transition(0, Transition(pre, slots))
				case 3:
					sb.Prune(0, now)
				}
				live := 0
				for _, e := range sb.entries[0] {
					if e.WB > now {
						live++
					}
				}
				if live > perWarp {
					t.Fatalf("%v, %d entries, step %d: %d live entries at cycle %d", mode, perWarp, step, live, now)
				}
				cand := mkIns(isa.OpIMul, isa.Reg(rng.IntN(8)), isa.Reg(rng.IntN(8)), isa.Reg(rng.IntN(8)))
				slot := rng.IntN(3)
				if hazWB, hasHaz, structWB, hasStruct := sb.Horizon(0, cand, srcsOf(cand), slot, slots[slot], now); hasHaz && hasStruct && structWB > hazWB {
					t.Fatalf("%v, %d entries, step %d: the table stays full until %d, past the data hazard's %d", mode, perWarp, step, structWB, hazWB)
				}
			}
		}
	}
}

// The SM skips the transition of a heap move that leaves the slot masks
// unchanged. That rests on two facts about rows and slot masks, checked
// here over seeded random histories: a transition between equal masks
// changes only rows with a bit on an empty slot, and no entry ever holds
// such a row — an issue sets the bit of its own, occupied slot, and a
// transition moves bits onto occupied slots only.
func TestTransitionBetweenEqualMasksIsIdentityOnLiveRows(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 1))
	sb := NewScoreboard(DepMatrix, 1, 6)
	slots := [3]uint64{0xFFFF, 0, 0}
	for step := 0; step < 20000; step++ {
		switch rng.IntN(3) {
		case 0: // issue from an occupied slot
			if slot := rng.IntN(3); slots[slot] != 0 {
				sb.Issue(0, mkIns(isa.OpIAdd, isa.Reg(rng.IntN(8)), 30, 30), slot, slots[slot], int64(step+1+rng.IntN(20)))
			}
		case 1: // deal the threads out again: splits, merges, emptied slots
			pre := slots
			slots = [3]uint64{}
			for m := uint64(0xFFFF); m != 0; m &= m - 1 {
				slots[min(rng.IntN(4), 2)] |= m &^ (m - 1)
			}
			sb.Transition(0, Transition(pre, slots))
		case 2:
			sb.Prune(0, int64(step))
		}
		same := Transition(slots, slots)
		onEmpty := func(r Row) bool {
			return r[0] && slots[0] == 0 || r[1] && slots[1] == 0 || r[2] && slots[2] == 0
		}
		for n := 0; n < 8; n++ {
			r := Row{n&1 != 0, n&2 != 0, n&4 != 0}
			if got := r.Mul(same); !onEmpty(r) && got != r {
				t.Fatalf("step %d: row %v became %v under the transition between equal masks %x", step, r, got, slots)
			}
		}
		for _, e := range sb.entries[0] {
			if onEmpty(e.Row) {
				t.Fatalf("step %d: entry row %v has a bit on an empty slot of %x", step, e.Row, slots)
			}
		}
	}
}

// TestScoreboardResetEqualsNew is the scoreboard's row of the Reset ≡
// New law (statcheck.CheckReset), over every dependency mode and warp
// counts and entry limits that grow and shrink. A use issues seeded
// instructions on random warps, slots and masks, moves rows by random
// transitions, and observes every ReadyAt, Horizon and InFlight answer
// and the counters; it ends, abandoned or not, with entries in flight
// past the next use's cycles.
func TestScoreboardResetEqualsNew(t *testing.T) {
	type shape struct {
		mode           DepMode
		warps, perWarp int
	}
	use := func(s *Scoreboard, c shape, seed uint64, _ bool) any {
		rng := rand.New(rand.NewPCG(seed, 0x5b))
		var obs []int64
		now := int64(0)
		for range 600 {
			now += rng.Int64N(3)
			w, slot, mask := rng.IntN(c.warps), rng.IntN(3), rng.Uint64()&0xFF
			ins := mkIns(isa.OpIAdd, isa.Reg(rng.IntN(6)), isa.Reg(rng.IntN(6)), isa.Reg(rng.IntN(6)))
			hz, _, st, _ := s.Horizon(w, ins, srcsOf(ins), slot, mask, now)
			ready := s.ReadyAt(w, ins, srcsOf(ins), slot, mask, now)
			obs = append(obs, ready, hz, st, int64(s.InFlight(w, now)))
			if ready <= now {
				s.Issue(w, ins, slot, mask, now+1+rng.Int64N(60))
			}
			if rng.IntN(4) == 0 {
				s.Transition(w, Transition([3]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()}, [3]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()}))
			}
		}
		return []any{obs, s.Stats}
	}
	for _, p := range statcheck.CheckReset(statcheck.ResetRow[Scoreboard, shape]{
		Fresh:   func(c shape, seed uint64) any { return use(NewScoreboard(c.mode, c.warps, c.perWarp), c, seed, false) },
		Reset:   func(s *Scoreboard, c shape) error { s.Reset(c.mode, c.warps, c.perWarp); return nil },
		Use:     use,
		Configs: []shape{{DepWarp, 4, 6}, {DepMatrix, 8, 2}, {DepMask, 2, 6}, {DepMatrix, 16, 1}, {DepWarp, 1, 9}},
	}) {
		t.Error(p)
	}
}
