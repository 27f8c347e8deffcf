package sched

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestBuddySetsFull(t *testing.T) {
	sets, err := BuddySets(16, AssocFull)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 1 || len(sets[0]) != 16 {
		t.Errorf("full assoc: %v", sets)
	}
}

func TestBuddySetsDirectMapped(t *testing.T) {
	sets, err := BuddySets(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 16 {
		t.Fatalf("direct mapped should have 16 singleton sets, got %d", len(sets))
	}
	for i, s := range sets {
		if len(s) != 1 || s[0] != i {
			t.Errorf("set %d = %v", i, s)
		}
	}
}

func TestBuddySetsLowOrderBitsInterleave(t *testing.T) {
	// assoc 4 over 16 warps -> 4 sets; warp w in set w%4, so set 0 holds
	// warps {0,4,8,12}: consecutive warps are spread across sets.
	sets, err := BuddySets(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 4 {
		t.Fatalf("sets = %d", len(sets))
	}
	want := []int{0, 4, 8, 12}
	for i, w := range want {
		if sets[0][i] != w {
			t.Errorf("set0 = %v, want %v", sets[0], want)
		}
	}
}

func TestBuddySetsErrors(t *testing.T) {
	if _, err := BuddySets(0, 4); err == nil {
		t.Error("want error for zero warps")
	}
	if _, err := BuddySets(16, -1); err == nil {
		t.Error("want error for negative associativity")
	}
}

// Sets must partition the warps: every warp in exactly one set, set
// sizes bounded by the associativity.
func TestQuickBuddySetsPartition(t *testing.T) {
	f := func(nRaw, aRaw uint8) bool {
		n := 1 + int(nRaw)%64
		a := 1 + int(aRaw)%16
		sets, err := BuddySets(n, a)
		if err != nil {
			return false
		}
		seen := make([]bool, n)
		for _, set := range sets {
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
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
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
	if l.Assoc() != 3 {
		t.Errorf("Assoc = %d", l.Assoc())
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

// TestLookupReset: a lookup is rebuilt exactly when a parameter changed
// — the caller re-derives its own tables from that answer — equals a
// new one afterwards, and is left alone by a rejected Reset.
func TestLookupReset(t *testing.T) {
	var l Lookup
	for _, step := range []struct {
		warps, assoc int
		rebuilt      bool
	}{{16, 3, true}, {16, 3, false}, {16, AssocFull, true}, {32, AssocFull, true}, {32, 1, true}, {32, 1, false}} {
		rebuilt, err := l.Reset(step.warps, step.assoc)
		if err != nil || rebuilt != step.rebuilt {
			t.Fatalf("Reset(%d, %d) = rebuilt %v, %v; want rebuilt %v", step.warps, step.assoc, rebuilt, err, step.rebuilt)
		}
		fresh, _ := NewLookup(step.warps, step.assoc)
		if !reflect.DeepEqual(&l, fresh) {
			t.Fatalf("after Reset(%d, %d): %+v, a new lookup is %+v", step.warps, step.assoc, l, *fresh)
		}
	}
	for _, bad := range [][2]int{{0, AssocFull}, {32, -1}} {
		if _, err := l.Reset(bad[0], bad[1]); err == nil {
			t.Errorf("Reset(%d, %d) succeeded", bad[0], bad[1])
		}
	}
	if fresh, _ := NewLookup(32, 1); !reflect.DeepEqual(&l, fresh) {
		t.Error("a rejected Reset changed the lookup")
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
