package sm

import (
	"fmt"

	"repro/internal/mem"
)

// Stats aggregates one simulation run.
type Stats struct {
	Cycles int64

	// ThreadInstrs counts committed per-thread instructions, excluding
	// the thread-frontier SYNC markers and NOPs so IPC is comparable
	// between the baseline binary and the SYNC-instrumented binary.
	ThreadInstrs uint64

	// SyncThreadInstrs counts the per-thread SYNC executions excluded
	// from ThreadInstrs.
	SyncThreadInstrs uint64

	// IssueSlots counts scheduler issues (warp instructions, including
	// SYNCs); the §5.1 constraints experiment reports its reduction.
	IssueSlots uint64

	PrimaryIssues   uint64
	SecondaryIssues uint64

	// Secondary-issue provenance: a second warp-split of the same warp
	// (SBI), another warp (SWI), or the next sequential instruction of
	// the primary split (dual-issue to a distinct unit group).
	SBIPairs uint64
	SWIPairs uint64
	SeqPairs uint64

	// UnitThreadInstrs breaks ThreadInstrs down by unit class
	// (indexed by isa.Unit).
	UnitThreadInstrs [4]uint64

	// SyncWaits counts SYNC executions that suspended a split
	// (constraints enabled and another split inside [PCdiv, PCrec)).
	SyncWaits uint64

	// MemSplits counts DWS-style memory-divergence warp splits.
	MemSplits uint64

	// Divergences / Merges / MaxSplits aggregate reconvergence activity.
	Divergences   uint64
	Merges        uint64
	MaxSplits     int
	MaxStackDepth int

	DegradedInserts uint64
	CCTOverflows    uint64

	ScoreboardChecks uint64
	ScoreboardStalls uint64
	StructuralStalls uint64

	// Transactions counts LSU memory transactions; Replays the
	// transactions beyond one per wave (intra-warp memory divergence).
	Transactions uint64
	Replays      uint64

	BarrierWaits uint64
	BlocksRun    int

	Mem mem.Stats
}

// Merge folds another run's statistics into s. Counters add; peak
// trackers (MaxSplits, MaxStackDepth, and the memory system's peaks)
// take the maximum. Cycles add too: the merged value is the aggregate
// SM-busy cycle count across the merged runs, not device wall-clock
// (Result.SMCycles and DeviceCycles model that). Merging is commutative
// and associative over these fields, so a device merging per-wave
// statistics in wave order produces identical totals for any SM or
// worker count.
func (s *Stats) Merge(o *Stats) {
	s.Cycles += o.Cycles
	s.ThreadInstrs += o.ThreadInstrs
	s.SyncThreadInstrs += o.SyncThreadInstrs
	s.IssueSlots += o.IssueSlots
	s.PrimaryIssues += o.PrimaryIssues
	s.SecondaryIssues += o.SecondaryIssues
	s.SBIPairs += o.SBIPairs
	s.SWIPairs += o.SWIPairs
	s.SeqPairs += o.SeqPairs
	for i := range s.UnitThreadInstrs {
		s.UnitThreadInstrs[i] += o.UnitThreadInstrs[i]
	}
	s.SyncWaits += o.SyncWaits
	s.MemSplits += o.MemSplits
	s.Divergences += o.Divergences
	s.Merges += o.Merges
	if o.MaxSplits > s.MaxSplits {
		s.MaxSplits = o.MaxSplits
	}
	if o.MaxStackDepth > s.MaxStackDepth {
		s.MaxStackDepth = o.MaxStackDepth
	}
	s.DegradedInserts += o.DegradedInserts
	s.CCTOverflows += o.CCTOverflows
	s.ScoreboardChecks += o.ScoreboardChecks
	s.ScoreboardStalls += o.ScoreboardStalls
	s.StructuralStalls += o.StructuralStalls
	s.Transactions += o.Transactions
	s.Replays += o.Replays
	s.BarrierWaits += o.BarrierWaits
	s.BlocksRun += o.BlocksRun
	s.Mem.Merge(&o.Mem)
}

// IPC returns committed thread instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.ThreadInstrs) / float64(s.Cycles)
}

// SecondaryShare returns the fraction of issues that came from the
// secondary slot.
func (s *Stats) SecondaryShare() float64 {
	if s.IssueSlots == 0 {
		return 0
	}
	return float64(s.SecondaryIssues) / float64(s.IssueSlots)
}

func (s *Stats) String() string {
	return fmt.Sprintf("cycles=%d ipc=%.2f issues=%d (sec %.0f%%: sbi=%d swi=%d seq=%d) div=%d merge=%d",
		s.Cycles, s.IPC(), s.IssueSlots, 100*s.SecondaryShare(), s.SBIPairs, s.SWIPairs, s.SeqPairs,
		s.Divergences, s.Merges)
}
