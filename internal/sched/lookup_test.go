package sched

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/statcheck"
)

func TestBuddySetsFull(t *testing.T) {
	l, err := NewLookup(16, AssocFull)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumSets() != 1 || len(l.SetWarps(0)) != 16 {
		t.Errorf("full assoc: %d sets, set 0 is %v", l.NumSets(), l.SetWarps(0))
	}
}

func TestBuddySetsDirectMapped(t *testing.T) {
	l, err := NewLookup(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumSets() != 16 {
		t.Fatalf("direct mapped should have 16 singleton sets, got %d", l.NumSets())
	}
	for i := range 16 {
		if s := l.SetWarps(i); len(s) != 1 || s[0] != i {
			t.Errorf("set %d = %v", i, s)
		}
	}
}

func TestBuddySetsLowOrderBitsInterleave(t *testing.T) {
	// assoc 4 over 16 warps -> 4 sets; warp w in set w%4, so set 0 holds
	// warps {0,4,8,12}: consecutive warps are spread across sets.
	l, err := NewLookup(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumSets() != 4 {
		t.Fatalf("sets = %d", l.NumSets())
	}
	if got, want := l.SetWarps(0), []int{0, 4, 8, 12}; !slices.Equal(got, want) {
		t.Errorf("set0 = %v, want %v", got, want)
	}
}

func TestBuddySetsErrors(t *testing.T) {
	if _, err := NewLookup(0, 4); err == nil {
		t.Error("want error for zero warps")
	}
	if _, err := NewLookup(16, -1); err == nil {
		t.Error("want error for negative associativity")
	}
}

// Sets must partition the warps: every warp in exactly one set, set
// sizes bounded by the associativity.
func TestQuickBuddySetsPartition(t *testing.T) {
	f := func(nRaw, aRaw uint8) bool {
		n := 1 + int(nRaw)%64
		a := 1 + int(aRaw)%16
		l, err := NewLookup(n, a)
		if err != nil {
			return false
		}
		seen := make([]bool, n)
		for si := range l.NumSets() {
			set := l.SetWarps(si)
			if len(set) > a {
				return false
			}
			for _, w := range set {
				if w < 0 || w >= n || seen[w] {
					return false
				}
				seen[w] = true
			}
		}
		return !slices.Contains(seen, false)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLookupCandidates(t *testing.T) {
	l, err := NewLookup(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 16 warps, assoc 3 -> 6 sets; warp 7 is in set 7%6 = 1 with {1,7,13}.
	got := l.Candidates(7)
	want := []int{1, 7, 13}
	if len(got) != len(want) {
		t.Fatalf("candidates = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidates = %v, want %v", got, want)
		}
	}
	if l.NumSets() != 6 {
		t.Errorf("NumSets = %d", l.NumSets())
	}
}

func TestLookupDirectMappedProbesBuddy(t *testing.T) {
	l, err := NewLookup(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A direct-mapped lookup must never probe the primary's own
	// singleton set: warp w pairs with a fixed buddy (w+1 mod 16).
	for w := 0; w < 16; w++ {
		got := l.Candidates(w)
		if len(got) != 1 || got[0] != (w+1)%16 {
			t.Errorf("Candidates(%d) = %v, want [%d]", w, got, (w+1)%16)
		}
	}
}

// TestLookupReset is the lookup's row of the Reset ≡ New law
// (statcheck.CheckReset): a lookup is a pure function of its two
// parameters, so a use observes the whole structure. Reset also reports
// whether it rebuilt the sets, which it must do exactly when a
// parameter changed: the SM re-derives its buddy-set masks from that
// answer.
func TestLookupReset(t *testing.T) {
	for _, p := range statcheck.CheckReset(statcheck.ResetRow[Lookup, [2]int]{
		Fresh: func(c [2]int, _ uint64) any {
			l, _ := NewLookup(c[0], c[1])
			return *l
		},
		Reset:   func(l *Lookup, c [2]int) error { _, err := l.Reset(c[0], c[1]); return err },
		Use:     func(l *Lookup, _ [2]int, _ uint64, _ bool) any { return *l },
		Configs: [][2]int{{16, 3}, {16, AssocFull}, {32, AssocFull}, {32, 1}, {7, 11}},
		Rejects: [][2]int{{0, AssocFull}, {32, -1}},
	}) {
		t.Error(p)
	}
	var l Lookup
	for _, step := range []struct {
		warps, assoc int
		rebuilt      bool
	}{{16, 3, true}, {16, 3, false}, {16, AssocFull, true}, {32, AssocFull, true}, {32, 1, true}, {32, 1, false}} {
		if rebuilt, err := l.Reset(step.warps, step.assoc); err != nil || rebuilt != step.rebuilt {
			t.Fatalf("Reset(%d, %d) = rebuilt %v, %v; want rebuilt %v", step.warps, step.assoc, rebuilt, err, step.rebuilt)
		}
	}
}

func TestXorShiftDeterministicNonZero(t *testing.T) {
	a := NewXorShift64(42)
	b := NewXorShift64(42)
	for i := 0; i < 1000; i++ {
		va, vb := a.Next(), b.Next()
		if va != vb {
			t.Fatal("sequences diverge")
		}
		if va == 0 {
			t.Fatal("xorshift must never emit zero")
		}
	}
}

func TestXorShiftZeroSeed(t *testing.T) {
	x := NewXorShift64(0)
	if x.Next() == 0 {
		t.Error("zero seed must be remapped")
	}
}

func TestXorShiftIntn(t *testing.T) {
	x := NewXorShift64(7)
	counts := make([]int, 5)
	for i := 0; i < 5000; i++ {
		v := x.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("value %d never drawn", i)
		}
	}
	if x.Intn(1) != 0 || x.Intn(0) != 0 {
		t.Error("Intn(<=1) must be 0")
	}
}
