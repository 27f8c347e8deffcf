package sm

import (
	"math/bits"

	"repro/internal/exec"
	"repro/internal/reconv"
)

// block is one resident thread block. live and arrived are maintained
// incrementally (warp completion in refreshWarp, barrier arrival in
// execBar) so the per-cycle retire and barrier sweeps cost O(blocks)
// instead of O(blocks × warps).
type block struct {
	cta     int
	warps   []*warp
	shared  []byte
	live    int // warps with unfinished threads
	arrived int // live warps waiting at the block barrier

	// epoch counts the block's barrier releases; the trace recorder is
	// handed it with every memory access, because two intra-block
	// accesses are ordered exactly when their epochs differ. It only
	// ever increments, which package replay's race analysis relies on
	// (see replay.Sink).
	epoch int32
}

// barrierReady reports whether every live warp has arrived at the block
// barrier.
func (b *block) barrierReady() bool {
	return b.live > 0 && b.arrived == b.live
}

// warp is one resident warp's architectural and micro-architectural
// state. Exactly one of stack/heap is non-nil, per the configuration.
type warp struct {
	id    int // SM-local warp index (also the scoreboard index)
	block *block
	base  int // first thread index within the block

	// regs and env are the functional state (register-major, see package
	// exec); a replayed run never touches them.
	valid uint64
	regs  exec.WarpRegs
	env   exec.WarpEnv

	// stack and heap are the resident block's reconvergence state:
	// stackStore or heapStore, whichever its architecture uses. The
	// stores are built on first use and keep their tables' storage from
	// one block to the next.
	stack      *reconv.Stack
	heap       *reconv.Heap
	stackStore *reconv.Stack
	heapStore  *reconv.Heap

	// laneOf maps tid -> physical lane under the configured shuffle
	// (empty until the context's first block under that shuffle);
	// identity marks the trivial permutation so laneMask can skip the
	// bit-by-bit transpose on the hot path.
	laneOf   []int
	identity bool

	// laneCache memoizes the last transposed mask for non-identity
	// shuffles: between divergence events the same split masks are
	// probed cycle after cycle.
	laneCacheMask uint64
	laneCacheLane uint64
	laneCacheOK   bool

	// atBarrier marks a warp whose full-mask split issued BAR and now
	// waits for the rest of the block.
	atBarrier bool

	// deadCounted marks that the warp's completion has been folded into
	// its block's live counter.
	deadCounted bool

	// lastIssue is the warp-level oldest-first age for the stack model
	// (the heap model tracks it per context).
	lastIssue int64
}

// done reports whether all of the resident warp's threads exited.
//
//sbwi:hotpath
func (w *warp) done() bool {
	if w.heap != nil {
		return w.heap.Done()
	}
	return w.stack.Done()
}

// laneMask transposes a thread mask into lane space.
//
//sbwi:hotpath
func (w *warp) laneMask(mask uint64) uint64 {
	if w.identity {
		return mask
	}
	if w.laneCacheOK && w.laneCacheMask == mask {
		return w.laneCacheLane
	}
	var out uint64
	for m := mask; m != 0; m &= m - 1 {
		tid := bits.TrailingZeros64(m)
		out |= 1 << uint(w.laneOf[tid])
	}
	w.laneCacheMask, w.laneCacheLane, w.laneCacheOK = mask, out, true
	return out
}
