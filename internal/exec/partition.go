package exec

import "fmt"

// Grid partitioning and the global-memory write-sharing contract.
//
// A Device splits a launch's grid into waves of CTAs and simulates each
// wave on an independent SM instance, every wave starting from a
// snapshot of the same pre-launch global image. For the merged result
// to be well defined the kernel must satisfy the same contract a real
// multi-SM GPU imposes on a single kernel launch without grid-wide
// synchronization:
//
//	CTAs of one launch must not communicate through global memory.
//	Writes from different CTAs to the same location are permitted only
//	if every writer stores the same value (order-independent writes,
//	e.g. BFS frontier levels); reads that race such writes must
//	tolerate either the old or the new value.
//
// MergeWave enforces the writable half of that contract exactly: a
// location written by two waves with different values is reported as a
// conflict instead of being silently resolved by scheduling order.

// WriteConflict reports two CTA waves writing different values to the
// same global-memory byte — a violation of the launch write-sharing
// contract above.
type WriteConflict struct {
	Offset int  // byte offset into Global
	A, B   byte // the two conflicting values
}

func (e *WriteConflict) Error() string {
	return fmt.Sprintf("exec: conflicting global writes at byte %d (%#x vs %#x): CTAs of one launch must write disjoint or identical values", e.Offset, e.A, e.B)
}

// MergeWaves folds per-wave global-memory images back into dst. base is
// the shared, unmodified pre-launch image every wave started from; each
// entry of waves is one wave's private post-run image. dst starts as a
// copy of base and takes each wave in turn (MergeWave). dst must not
// alias base (it may be the launch's live Global slice, whose content
// still equals base because the waves ran on copies).
func MergeWaves(dst, base []byte, waves [][]byte) error {
	if len(dst) != len(base) {
		return fmt.Errorf("exec: merge images differ in length: %d vs %d", len(dst), len(base))
	}
	if len(base) > 0 && &dst[0] == &base[0] {
		return fmt.Errorf("exec: merge destination must not alias the base image")
	}
	copy(dst, base)
	for _, w := range waves {
		if err := MergeWave(dst, base, w); err != nil {
			return err
		}
	}
	return nil
}

// MergeWave folds one wave's post-run image w into dst, which holds
// base plus the waves folded into it so far; dst must not alias base. A
// byte counts as written exactly when it differs from base: a byte w
// wrote is committed to dst, and one that dst already holds a different
// written value for is a WriteConflict (several waves agreeing on the
// value is fine — the order-independent-write case). Whatever order the
// waves are folded in, the image is the same, and a conflict in one
// order is a conflict in every other.
func MergeWave(dst, base, w []byte) error {
	if len(w) != len(base) || len(dst) != len(base) {
		return fmt.Errorf("exec: merge images differ in length: wave %d, merged %d, base %d", len(w), len(dst), len(base))
	}
	for i, b := range w {
		switch d := dst[i]; {
		case b == base[i] || b == d: // not written by w, or already committed
		case d == base[i]:
			dst[i] = b
		default:
			return &WriteConflict{Offset: i, A: d, B: b}
		}
	}
	return nil
}

// PartitionWaves splits grid CTAs into contiguous waves of at most
// waveSize blocks: [0,w), [w,2w), ... The decomposition depends only on
// the launch and the SM configuration — never on how many SM instances
// or host workers execute it — which is what makes device results
// reproducible for any parallelism setting.
func PartitionWaves(grid, waveSize int) [][2]int {
	if grid <= 0 || waveSize <= 0 {
		return nil
	}
	waves := make([][2]int, 0, (grid+waveSize-1)/waveSize)
	for start := 0; start < grid; start += waveSize {
		end := start + waveSize
		if end > grid {
			end = grid
		}
		waves = append(waves, [2]int{start, end})
	}
	return waves
}
