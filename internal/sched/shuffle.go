// Package sched provides the scheduling building blocks of the SBI/SWI
// micro-architectures: static lane-shuffling policies (paper table 1),
// the baseline per-warp scoreboard and the dependency-matrix scoreboard
// of §3.4, the set-associative warp-buddy lookup used by the secondary
// SWI scheduler (§4), and the xorshift tie-breaker PRNG.
//
// The cycle-level pipeline in internal/sm composes these pieces; they
// are kept separate so each policy can be tested and ablated on its own.
package sched

import "fmt"

// Shuffle selects a static thread-to-lane mapping (paper table 1).
// Shuffling decorrelates the divergence patterns of different warps so
// the SWI secondary scheduler finds more disjoint-mask pairs. It is a
// pure renaming of lanes: memory addresses still derive from thread IDs,
// so coalescing behavior is unchanged.
type Shuffle uint8

// Lane shuffle policies.
const (
	ShuffleIdentity   Shuffle = iota // lane = tid
	ShuffleMirrorOdd                 // lane = n-tid on odd warps
	ShuffleMirrorHalf                // lane = n-tid on the upper half of warps
	ShuffleXor                       // lane = tid XOR wid
	ShuffleXorRev                    // lane = tid XOR bitrev(wid)

	NumShuffles = 5
)

// Shuffles lists all policies in table order.
func Shuffles() []Shuffle {
	return []Shuffle{ShuffleIdentity, ShuffleMirrorOdd, ShuffleMirrorHalf, ShuffleXor, ShuffleXorRev}
}

// ParseShuffle resolves a policy name (as printed by String).
func ParseShuffle(name string) (Shuffle, error) {
	for _, p := range Shuffles() {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("sched: unknown shuffle policy %q", name)
}

func (p Shuffle) String() string {
	switch p {
	case ShuffleIdentity:
		return "Identity"
	case ShuffleMirrorOdd:
		return "MirrorOdd"
	case ShuffleMirrorHalf:
		return "MirrorHalf"
	case ShuffleXor:
		return "Xor"
	case ShuffleXorRev:
		return "XorRev"
	}
	return fmt.Sprintf("Shuffle(%d)", uint8(p))
}

// Lane maps thread tid of warp wid to a physical lane. width must be a
// power of two; numWarps is the number of resident warps (used by
// MirrorHalf). The mapping is a permutation of [0, width) for every wid.
func (p Shuffle) Lane(tid, wid, width, numWarps int) int {
	switch p {
	case ShuffleMirrorOdd:
		if wid%2 == 1 {
			return width - 1 - tid
		}
	case ShuffleMirrorHalf:
		if numWarps > 0 && wid >= numWarps/2 {
			return width - 1 - tid
		}
	case ShuffleXor:
		return tid ^ (wid % width)
	case ShuffleXorRev:
		return tid ^ bitrev(wid, log2(width))
	}
	return tid
}

// Permutation fills and returns the tid->lane table for one warp,
// reusing dst's storage when it has room for width entries.
func (p Shuffle) Permutation(dst []int, wid, width, numWarps int) []int {
	if cap(dst) < width {
		dst = make([]int, width)
	}
	dst = dst[:width]
	for tid := range dst {
		dst[tid] = p.Lane(tid, wid, width, numWarps)
	}
	return dst
}

// LaneMask transposes a thread-activity mask into lane space.
func (p Shuffle) LaneMask(mask uint64, wid, width, numWarps int) uint64 {
	if p == ShuffleIdentity {
		return mask
	}
	var out uint64
	for tid := 0; tid < width; tid++ {
		if mask&(1<<uint(tid)) != 0 {
			out |= 1 << uint(p.Lane(tid, wid, width, numWarps))
		}
	}
	return out
}

// bitrev reverses the low n bits of x (the bit-reversal function of the
// XorRev policy).
func bitrev(x, n int) int {
	r := 0
	for i := 0; i < n; i++ {
		r = r<<1 | (x & 1)
		x >>= 1
	}
	return r
}

// log2 returns floor(log2(x)) for x >= 1.
func log2(x int) int {
	n := 0
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}
