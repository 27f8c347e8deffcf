package sched

import (
	"math/bits"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestShuffleIdentity(t *testing.T) {
	for tid := 0; tid < 64; tid++ {
		if got := ShuffleIdentity.Lane(tid, 5, 64, 16); got != tid {
			t.Fatalf("Identity(%d) = %d", tid, got)
		}
	}
}

func TestShuffleMirrorOdd(t *testing.T) {
	if got := ShuffleMirrorOdd.Lane(0, 1, 64, 16); got != 63 {
		t.Errorf("odd warp tid 0 -> %d, want 63", got)
	}
	if got := ShuffleMirrorOdd.Lane(0, 2, 64, 16); got != 0 {
		t.Errorf("even warp tid 0 -> %d, want 0", got)
	}
}

func TestShuffleMirrorHalf(t *testing.T) {
	if got := ShuffleMirrorHalf.Lane(3, 7, 64, 16); got != 3 {
		t.Errorf("lower-half warp: got %d, want 3", got)
	}
	if got := ShuffleMirrorHalf.Lane(3, 8, 64, 16); got != 60 {
		t.Errorf("upper-half warp: got %d, want 60", got)
	}
}

func TestShuffleXor(t *testing.T) {
	if got := ShuffleXor.Lane(5, 3, 64, 16); got != 5^3 {
		t.Errorf("Xor = %d", got)
	}
}

func TestShuffleXorRevSpreadsLowWarpBits(t *testing.T) {
	// bitrev over 6 bits: wid 1 -> 32, so warp 1's thread 0 maps to lane
	// 32 — adjacent warps get maximally distant lane offsets.
	if got := ShuffleXorRev.Lane(0, 1, 64, 16); got != 32 {
		t.Errorf("XorRev(0, wid=1) = %d, want 32", got)
	}
	if got := ShuffleXorRev.Lane(0, 2, 64, 16); got != 16 {
		t.Errorf("XorRev(0, wid=2) = %d, want 16", got)
	}
}

func TestBitrev(t *testing.T) {
	cases := []struct{ x, n, want int }{
		{0, 6, 0}, {1, 6, 32}, {2, 6, 16}, {3, 6, 48}, {63, 6, 63}, {1, 5, 16},
	}
	for _, c := range cases {
		if got := bitrev(c.x, c.n); got != c.want {
			t.Errorf("bitrev(%d,%d) = %d, want %d", c.x, c.n, got, c.want)
		}
	}
}

// Every policy must be a permutation of [0, width) for every warp:
// otherwise two threads would collide on one lane.
func TestQuickShufflePermutation(t *testing.T) {
	f := func(widRaw uint8, widthSel uint8) bool {
		width := []int{8, 16, 32, 64}[widthSel%4]
		wid := int(widRaw) % 32
		for _, p := range Shuffles() {
			seen := make([]bool, width)
			for tid := 0; tid < width; tid++ {
				l := p.Lane(tid, wid, width, 16)
				if l < 0 || l >= width || seen[l] {
					return false
				}
				seen[l] = true
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLanesMatchLane holds the closed form to Lane bit by bit: under
// every policy, at every power-of-two width from 1 to 64, for every
// warp id of a 48-warp SM, seeded random masks (and the full one) must
// transpose exactly as moving each thread's bit to its lane does.
func TestLanesMatchLane(t *testing.T) {
	const numWarps = 48
	rng := rand.New(rand.NewPCG(7, 0x1a7e))
	for _, p := range Shuffles() {
		for width := 1; width <= 64; width++ {
			if width&(width-1) != 0 {
				continue // Lane is defined on power-of-two widths
			}
			valid := uint64(1)<<uint(width) - 1 // a width of 64 shifts to 0: every bit
			for wid := 0; wid < numWarps; wid++ {
				m := p.Lanes(wid, width, numWarps)
				for i := 0; i < 64; i++ {
					mask := rng.Uint64() & valid
					if i == 0 {
						mask = valid
					}
					var want uint64
					for tid := 0; tid < width; tid++ {
						if mask>>uint(tid)&1 != 0 {
							want |= 1 << uint(p.Lane(tid, wid, width, numWarps))
						}
					}
					if got := m.Mask(mask); got != want {
						t.Fatalf("%v width %d warp %d: mask %#x transposes to %#x, Lane gives %#x", p, width, wid, mask, got, want)
					}
				}
			}
		}
	}
}

// Mask must preserve popcount (it is a permutation of bits).
func TestQuickLaneMaskPreservesPopcount(t *testing.T) {
	f := func(mask uint64, widRaw uint8) bool {
		wid := int(widRaw) % 16
		for _, p := range Shuffles() {
			lm := p.Lanes(wid, 64, 16).Mask(mask)
			if bits.OnesCount64(lm) != bits.OnesCount64(mask) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Same-warp masks keep their disjointness under every policy (lane
// mapping is per-warp, so SBI co-issue is never hurt by shuffling).
func TestQuickLaneMaskSameWarpDisjoint(t *testing.T) {
	f := func(a, b uint64, widRaw uint8) bool {
		b &^= a // force disjoint
		wid := int(widRaw) % 16
		for _, p := range Shuffles() {
			if m := p.Lanes(wid, 64, 16); m.Mask(a)&m.Mask(b) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The motivating example of §4: thread 0 of every warp busy (a common
// imbalance pattern). Identity collides all warps on lane 0; XorRev
// spreads them across distinct lanes.
func TestXorRevDecorrelatesFirstThreadPattern(t *testing.T) {
	var identityUnion, xorrevUnion uint64
	collideID, collideXR := 0, 0
	for wid := 0; wid < 16; wid++ {
		mask := uint64(1) // only thread 0 active
		id := ShuffleIdentity.Lanes(wid, 64, 16).Mask(mask)
		xr := ShuffleXorRev.Lanes(wid, 64, 16).Mask(mask)
		if identityUnion&id != 0 {
			collideID++
		}
		if xorrevUnion&xr != 0 {
			collideXR++
		}
		identityUnion |= id
		xorrevUnion |= xr
	}
	if collideID != 15 {
		t.Errorf("identity should collide all 15 later warps, got %d", collideID)
	}
	if collideXR != 0 {
		t.Errorf("XorRev should collide never, got %d collisions", collideXR)
	}
}

func TestParseShuffle(t *testing.T) {
	for _, p := range Shuffles() {
		got, err := ParseShuffle(p.String())
		if err != nil || got != p {
			t.Errorf("ParseShuffle(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseShuffle("nope"); err == nil {
		t.Error("want error for unknown policy")
	}
}
