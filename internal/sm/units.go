package sm

import (
	"math/bits"

	"repro/internal/isa"
)

// units tracks back-end execution resource occupancy. MAD groups are
// fully pipelined (one warp instruction per group per cycle); the SFU
// and LSU are narrower than a warp and stay busy for one cycle per wave
// (SFU) or per memory transaction (LSU).
type units struct {
	cfg *Config

	madFree []int64 // per-group busy-until cycle (exclusive)

	// Row sharing: lanes of the MAD row already claimed in cycle
	// rowCycle. Two disjoint-mask instructions may share the row.
	rowCycle int64
	rowMask  uint64

	sfuFree int64
	lsuFree int64
}

// reset frees every unit for a run configured by cfg, in the per-group
// table it has grown for any group count.
func (u *units) reset(cfg *Config) {
	free := u.madFree
	if cap(free) < cfg.MADGroups {
		free = ownLines[int64](cfg.MADGroups, 8) // probed every cycle, written at every MAD issue
	}
	free = free[:cfg.MADGroups]
	clear(free)
	*u = units{cfg: cfg, madFree: free, rowCycle: -1}
}

// sfuWaves returns the SFU occupancy in cycles for a lane mask: the
// number of SFU-width lane groups containing at least one active lane.
//
//sbwi:hotpath
func (u *units) sfuWaves(laneMask uint64) int64 {
	waves := int64(0)
	per := uint(u.cfg.SFUWidth)
	for lo := uint(0); lo < uint(u.cfg.WarpWidth); lo += per {
		if laneMask>>lo&(1<<per-1) != 0 {
			waves++
		}
	}
	if waves == 0 {
		waves = 1
	}
	return waves
}

// canIssue reports whether an instruction of the given unit class with
// laneMask can start at cycle now, considering already-issued
// instructions this cycle.
//
//sbwi:hotpath
func (u *units) canIssue(unit isa.Unit, laneMask uint64, now int64) bool {
	switch unit {
	case isa.UnitCTRL:
		return true
	case isa.UnitMAD:
		for _, f := range u.madFree {
			if f <= now {
				return true
			}
		}
		// All groups taken this cycle: row sharing may still fit.
		return u.rowCycle == now && u.rowMask&laneMask == 0
	case isa.UnitSFU:
		return u.sfuFree <= now
	default: // LSU
		return u.lsuFree <= now
	}
}

// issue reserves a MAD group or the SFU for an ALU instruction. Control
// instructions occupy no unit, and the LSU is reserved separately via
// issueLSU once the transaction count is known.
//
//sbwi:hotpath
func (u *units) issue(unit isa.Unit, laneMask uint64, now int64) {
	switch unit {
	case isa.UnitMAD:
		for g := range u.madFree {
			if u.madFree[g] <= now {
				u.madFree[g] = now + 1
				if u.rowCycle == now {
					u.rowMask |= laneMask
				} else {
					u.rowCycle, u.rowMask = now, laneMask
				}
				return
			}
		}
		// Row sharing (canIssue guaranteed disjointness).
		u.rowMask |= laneMask
	case isa.UnitSFU:
		u.sfuFree = now + u.sfuWaves(laneMask)
	}
}

// freeAt returns the earliest cycle at which an instruction of the
// given unit class can next start, assuming no further issues happen
// before then (the idle-span invariant: nothing issues, so same-cycle
// MAD row sharing — which needs an issue in that very cycle — cannot
// open the row early).
//
//sbwi:hotpath
func (u *units) freeAt(unit isa.Unit) int64 {
	switch unit {
	case isa.UnitCTRL:
		return 0
	case isa.UnitMAD:
		min := u.madFree[0]
		for _, f := range u.madFree[1:] {
			if f < min {
				min = f
			}
		}
		return min
	case isa.UnitSFU:
		return u.sfuFree
	default: // LSU
		return u.lsuFree
	}
}

// issueLSU reserves the load-store unit for txns transactions.
//
//sbwi:hotpath
func (u *units) issueLSU(txns int64, now int64) {
	if txns < 1 {
		txns = 1
	}
	u.lsuFree = now + txns
}

// holdLSU extends the LSU reservation through cycle t (exclusive) if it
// would free earlier: memory-system back-pressure — a full store write
// buffer — keeps the unit occupied until the hierarchy accepts the
// transaction.
//
//sbwi:hotpath
func (u *units) holdLSU(t int64) {
	if t > u.lsuFree {
		u.lsuFree = t
	}
}

// lsuWaves returns the number of LSU-width thread groups of a warp with
// at least one active thread (waves are formed in thread order, since
// the LSU coalesces by thread addresses).
//
//sbwi:hotpath
func (u *units) lsuWaves(mask uint64) int {
	waves := 0
	per := uint(u.cfg.LSUWidth)
	for lo := uint(0); lo < uint(u.cfg.WarpWidth); lo += per {
		if mask>>lo&(1<<per-1) != 0 { // 1<<64 is 0 in uint64, so per == 64 masks every bit
			waves++
		}
	}
	return waves
}

// popcount is a readability alias.
func popcount(m uint64) int { return bits.OnesCount64(m) }
