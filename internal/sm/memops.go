package sm

import (
	"math/bits"
	"slices"

	"repro/internal/exec"
	"repro/internal/mem"
)

// execMem performs a memory instruction: per-thread effective addresses,
// intra-wave coalescing into 128-byte transactions (replayed one per
// LSU cycle), L1/DRAM timing, the functional load/store, and — when
// SplitOnMemDivergence is enabled — the DWS-style hit/miss warp split.
// Transaction bookkeeping lives in per-SM scratch buffers (txnBuf,
// txnReady) so the path allocates nothing.
//
//sbwi:hotpath
func (s *SM) execMem(c *candidate) error {
	w, ins := c.w, c.ins

	global := ins.Op.IsGlobal()

	// Per-thread addresses. The architectural load is applied only to
	// the threads that advance past the instruction: under
	// memory-divergence splitting the miss threads replay the whole
	// load later, so their registers (including a destination that
	// doubles as the address register) must stay untouched. A replayed
	// run peeks the recorded address stream instead — without
	// consuming: a re-visit of the same load (miss threads under
	// memory-divergence splitting) must see the same address, exactly
	// as recomputing it from untouched registers would.
	var addrs [64]uint32
	if s.rp != nil {
		if global {
			base := s.gtidBase(w)
			for m := c.mask; m != 0; m &= m - 1 {
				t := bits.TrailingZeros64(m)
				a, ok := s.rp.PeekAddr(base + t)
				if !ok {
					return s.replayDesync(c.pc, base+t)
				}
				addrs[t] = a
			}
		}
		// Shared accesses need no addresses when replaying: their
		// timing depends only on the thread mask (lsuWaves), and the
		// shared image is never touched.
	} else {
		exec.EffAddrWarp(ins, &w.regs, c.mask, addrs[:])
	}
	// apply commits the architectural effect for the threads that
	// advance past the instruction. Replaying, the effect is consuming
	// the peeked address-stream entries (global only) — memory and
	// registers stay untouched. Recording additionally hands each
	// advanced access to the race analysis.
	apply := func(mask uint64) error { //sbwi:alloc-ok non-escaping; called directly in this frame (zero-alloc test pins it)
		if s.rp != nil {
			if global {
				base := s.gtidBase(w)
				for m := mask; m != 0; m &= m - 1 {
					s.rp.ConsumeAddr(base + bits.TrailingZeros64(m))
				}
			}
			return nil
		}
		space, image := "global", s.launch.Global
		if !global {
			space, image = "shared", w.block.shared
		}
		if err := exec.LoadStoreWarp(ins, &w.regs, space, image, addrs[:], mask, c.pc); err != nil {
			return err
		}
		if s.rec != nil {
			base := s.gtidBase(w)
			epoch := int(w.block.epoch)
			for m := mask; m != 0; m &= m - 1 {
				t := bits.TrailingZeros64(m)
				s.rec.Mem(base+t, w.block.cta, epoch, addrs[t], global, !ins.Op.IsLoad())
			}
		}
		return nil
	}

	if !ins.Op.IsGlobal() {
		// Shared memory: one LSU cycle per wave, fixed low latency, no
		// bank-conflict model (documented simplification).
		if err := apply(c.mask); err != nil {
			return err
		}
		waves := int64(s.units.lsuWaves(c.mask))
		s.units.issueLSU(waves, s.now)
		s.stats.Transactions += uint64(waves)
		if ins.Op.IsLoad() {
			s.sb.Issue(w.id, ins, c.slot, c.mask, s.now+s.cfg.SharedLatency+waves-1)
		}
		s.advance(c, c.pc+1)
		return nil
	}

	// Global memory: coalesce per wave, one transaction per LSU cycle.
	blockBytes := uint32(s.cfg.Mem.BlockBytes)
	txnBlocks := s.txnBuf[:0]
	waves := 0
	per := s.cfg.LSUWidth
	for lo := 0; lo < s.cfg.WarpWidth; lo += per {
		before := len(txnBlocks)
		txnBlocks = mem.Coalesce(txnBlocks, addrs[:s.cfg.WarpWidth], c.mask, lo, lo+per, blockBytes)
		if len(txnBlocks) > before {
			waves++
		}
	}
	s.txnBuf = txnBlocks
	txns := int64(len(txnBlocks))
	s.units.issueLSU(txns, s.now)
	s.stats.Transactions += uint64(txns)
	if t := txns - int64(waves); t > 0 {
		s.stats.Replays += uint64(t)
	}

	if !ins.Op.IsLoad() {
		if err := apply(c.mask); err != nil {
			return err
		}
		// Store retire time carries write-buffer back-pressure: when the
		// buffer in front of a modeled lower level is full, the hierarchy
		// accepts the store late and the LSU stays occupied until then.
		// The flat DRAM path always retires at now + HitLatency, leaving
		// the reservation from issueLSU unchanged.
		retire := int64(0)
		for _, b := range txnBlocks {
			if r := s.hier.Store(s.now, b); r > retire {
				retire = r
			}
		}
		if hold := retire - s.cfg.Mem.HitLatency; hold > s.now {
			s.units.holdLSU(hold)
		}
		s.advance(c, c.pc+1)
		return nil
	}

	// Loads: each transaction returns at its own cycle; the split's
	// writeback is the slowest one unless memory-divergence splitting
	// lets hit threads run ahead.
	ready := s.txnReady[:0]
	maxReady := int64(0)
	for _, b := range txnBlocks {
		r := s.hier.Load(s.now, b)
		ready = append(ready, r) //sbwi:alloc-ok fills s.txnReady scratch; cap reaches steady state after warm-up
		if r > maxReady {
			maxReady = r
		}
	}
	s.txnReady = ready

	if s.cfg.SplitOnMemDivergence {
		hitBound := s.now + s.cfg.Mem.HitLatency
		var hitMask, missMask uint64
		hitReady := int64(0)
		for m := c.mask; m != 0; m &= m - 1 {
			t := bits.TrailingZeros64(m)
			// The coalescer put every active lane's block in the list.
			r := ready[slices.Index(txnBlocks, addrs[t]&^(blockBytes-1))]
			if r <= hitBound {
				hitMask |= 1 << uint(t)
				if r > hitReady {
					hitReady = r
				}
			} else {
				missMask |= 1 << uint(t)
			}
		}
		if hitMask != 0 && missMask != 0 {
			// Hit threads advance with their fast writeback; miss
			// threads stay at the load with registers untouched and
			// replay it (by then the lines are in flight or filled, so
			// the replay is cheap).
			if err := apply(hitMask); err != nil {
				return err
			}
			s.stats.MemSplits++
			s.sb.Issue(w.id, ins, c.slot, hitMask, hitReady)
			pre := w.heap.SlotMasks()
			w.heap.Diverge(c.pc, c.pc+1, c.pc, hitMask, s.now)
			s.slotsMoved(w, pre)
			return nil
		}
	}

	if err := apply(c.mask); err != nil {
		return err
	}
	s.sb.Issue(w.id, ins, c.slot, c.mask, maxReady)
	s.advance(c, c.pc+1)
	return nil
}
