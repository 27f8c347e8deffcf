// Package sched provides the scheduling building blocks of the SBI/SWI
// micro-architectures: static lane-shuffling policies (paper table 1),
// the baseline per-warp scoreboard and the dependency-matrix scoreboard
// of §3.4, the set-associative warp-buddy lookup used by the secondary
// SWI scheduler (§4), and the xorshift tie-breaker PRNG.
//
// The cycle-level pipeline in internal/sm composes these pieces; they
// are kept separate so each policy can be tested and ablated on its own.
package sched

import (
	"fmt"
	"math/bits"
)

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
		return tid ^ bitrev(wid, bits.Len(uint(width))-1)
	}
	return tid
}

// Lanes is one warp's thread-to-lane mapping under a Shuffle, in closed
// form: every policy maps lane = (mirror ? width-1-tid : tid) XOR k, so
// a thread mask transposes with at most one bit reversal and one
// adjacent-block swap per set bit of k. The zero Lanes is the identity.
type Lanes struct {
	mirror bool
	shift  uint8 // 64-width: brings a reversed mask back to the low width bits
	k      uint8
}

// Lanes returns warp wid's mapping, the one Lane computes thread by
// thread.
func (p Shuffle) Lanes(wid, width, numWarps int) Lanes {
	m := Lanes{shift: uint8(64 - width)}
	switch p {
	case ShuffleMirrorOdd:
		m.mirror = wid%2 == 1
	case ShuffleMirrorHalf:
		m.mirror = numWarps > 0 && wid >= numWarps/2
	case ShuffleXor:
		m.k = uint8(wid % width)
	case ShuffleXorRev:
		m.k = uint8(bitrev(wid, bits.Len(uint(width))-1))
	}
	return m
}

// blocksLo[b] selects, in every pair of adjacent 2^b-bit blocks, the
// lower one: XOR with 2^b swaps each such pair.
var blocksLo = [6]uint64{
	0x5555555555555555, 0x3333333333333333, 0x0f0f0f0f0f0f0f0f,
	0x00ff00ff00ff00ff, 0x0000ffff0000ffff, 0x00000000ffffffff,
}

// Mask transposes a thread-activity mask into lane space.
//
//sbwi:hotpath
func (m Lanes) Mask(mask uint64) uint64 {
	if m.mirror {
		mask = bits.Reverse64(mask) >> m.shift
	}
	for k := m.k; k != 0; k &= k - 1 {
		b := bits.TrailingZeros8(k)
		mask = mask&blocksLo[b]<<(1<<b) | mask>>(1<<b)&blocksLo[b]
	}
	return mask
}

// bitrev reverses the low n bits of x (the bit-reversal function of the
// XorRev policy).
func bitrev(x, n int) int { return int(bits.Reverse64(uint64(x)) >> uint(64-n)) }
