package sched

import "fmt"

// Associativity of the SWI secondary scheduler's mask-subset lookup
// (§4, figure 9). A fully-associative lookup searches every warp's
// instruction-buffer entry; a set-associative lookup partitions warps
// into sets and searches only the set selected by the low-order bits of
// the primary warp identifier, trading scheduling opportunities for a
// cheaper, bank-partitioned instruction buffer.
const (
	// AssocFull searches all warps.
	AssocFull = 0
)

// Lookup answers "which warps may the secondary scheduler consider when
// the primary issued warp w" with precomputed set membership. It
// partitions numWarps warps into sets of size at most assoc (assoc =
// AssocFull means one set holding everything). Warp w belongs to set w
// mod numSets, so consecutive warps land in different sets — matching
// the paper's "low-order bits of the warp identifier" indexing.
type Lookup struct {
	assoc   int
	numSets int
	sets    [][]int // cut from members, set by set
	members []int   // every warp once
	setOf   []int
}

// NewLookup builds the lookup structure for numWarps warps with the
// given associativity.
func NewLookup(numWarps, assoc int) (*Lookup, error) {
	l := new(Lookup)
	if _, err := l.Reset(numWarps, assoc); err != nil {
		return nil, err
	}
	return l, nil
}

// Reset makes l the lookup NewLookup builds. Set membership is a pure
// function of the two parameters, so a lookup already built for them is
// left as it is; rebuilt reports whether it had to be built anew, which
// it does in the storage it has grown for any earlier parameters. On
// error l is unchanged.
func (l *Lookup) Reset(numWarps, assoc int) (rebuilt bool, err error) {
	if numWarps > 0 && len(l.setOf) == numWarps && l.assoc == assoc {
		return false, nil
	}
	if numWarps <= 0 {
		return false, fmt.Errorf("sched: numWarps %d invalid", numWarps)
	}
	if assoc < 0 {
		return false, fmt.Errorf("sched: associativity %d invalid", assoc)
	}
	l.assoc, l.numSets = assoc, 1
	if assoc != AssocFull && assoc < numWarps {
		l.numSets = (numWarps + assoc - 1) / assoc
	}
	if cap(l.setOf) < numWarps {
		l.setOf, l.members = make([]int, numWarps), make([]int, numWarps)
	}
	l.setOf, l.members, l.sets = l.setOf[:numWarps], l.members[:numWarps], l.sets[:0]
	at := 0
	for si := 0; si < l.numSets; si++ {
		first := at
		for w := si; w < numWarps; w += l.numSets {
			l.members[at], l.setOf[w] = w, si
			at++
		}
		l.sets = append(l.sets, l.members[first:at:at])
	}
	// Direct-mapped degenerate case: a warp's own set holds only the
	// warp itself, which the secondary scheduler must exclude. Probe the
	// neighboring set instead (still a function of the primary warp's
	// low-order bits), giving every warp one fixed buddy.
	if l.numSets == numWarps {
		for w := range l.setOf {
			l.setOf[w] = (w + 1) % l.numSets
		}
	}
	return true, nil
}

// Candidates returns the warps searched when the primary warp is
// `primary`. The slice is shared; callers must not modify it.
func (l *Lookup) Candidates(primary int) []int {
	return l.sets[l.setOf[primary]]
}

// SetOf returns the index of the set the secondary scheduler probes
// when the primary issued warp `primary`: Candidates(primary) is
// SetWarps(SetOf(primary)). With a direct-mapped lookup this is the
// neighboring set, not the set containing the warp.
func (l *Lookup) SetOf(primary int) int { return l.setOf[primary] }

// SetWarps returns the warps of set index si (used when the secondary
// scheduler substitutes for an idle primary and searches sets
// round-robin). The SM model turns each set into a bitset once per
// reset; its searches visit only the set's awake warps and count a
// sleeping warp's probes by popcount, and the substitute search, which
// never issues, is popcounts alone (see internal/sm's substitute). The
// slice is shared; callers must not modify it.
func (l *Lookup) SetWarps(si int) []int {
	return l.sets[si%l.numSets]
}

// NumSets returns the number of instruction-buffer banks the
// configuration implies.
func (l *Lookup) NumSets() int { return l.numSets }

// XorShift64 is the pseudo-random tie-breaker used by the secondary
// scheduler's best-fit policy (§4: "pseudo-random tie-breaking"),
// deterministic for reproducible simulations.
type XorShift64 uint64

// NewXorShift64 seeds the generator; a zero seed is replaced by a fixed
// non-zero constant (xorshift has a zero fixed point).
func NewXorShift64(seed uint64) *XorShift64 {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	x := XorShift64(seed)
	return &x
}

// Next returns the next value in the sequence.
func (x *XorShift64) Next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = XorShift64(v)
	return v
}

// Intn returns a value in [0, n).
func (x *XorShift64) Intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(x.Next() % uint64(n))
}
