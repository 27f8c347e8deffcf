package statcheck

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

type inner struct {
	Peak int64
}

type sample struct {
	Count uint64
	Arr   [2]uint64
	In    inner
}

// goodMerge combines every field: counters add, Peak maxes.
func goodMerge(dst, src *sample) {
	dst.Count += src.Count
	for i := range dst.Arr {
		dst.Arr[i] += src.Arr[i]
	}
	if src.In.Peak > dst.In.Peak {
		dst.In.Peak = src.In.Peak
	}
}

// badMerge forgets the array's second element and the nested peak.
func badMerge(dst, src *sample) {
	dst.Count += src.Count
	dst.Arr[0] += src.Arr[0]
}

func TestCheckMergeAcceptsSoundMerge(t *testing.T) {
	problems := CheckMerge(
		func() any { return new(sample) },
		func(d, s any) { goodMerge(d.(*sample), s.(*sample)) },
	)
	if len(problems) != 0 {
		t.Errorf("sound merge flagged: %v", problems)
	}
}

func TestCheckMergeCatchesDroppedFields(t *testing.T) {
	problems := CheckMerge(
		func() any { return new(sample) },
		func(d, s any) { badMerge(d.(*sample), s.(*sample)) },
	)
	joined := strings.Join(problems, "\n")
	for _, want := range []string{"Arr[1]", "In.Peak"} {
		if !strings.Contains(joined, want) {
			t.Errorf("dropped field %s not reported in:\n%s", want, joined)
		}
	}
	if strings.Contains(joined, "Arr[0]") {
		t.Errorf("correctly merged field flagged:\n%s", joined)
	}
}

func TestCheckMergeCatchesNonCommutativeMerge(t *testing.T) {
	// Overwrite semantics: dst takes src's value — 1⊕2 and 2⊕1 differ.
	problems := CheckMerge(
		func() any { return new(inner) },
		func(d, s any) { d.(*inner).Peak = s.(*inner).Peak },
	)
	if len(problems) == 0 {
		t.Error("overwrite merge must be flagged")
	}
}

// tally is a sample re-armable type: slots, as many as its
// configuration says, and a running total.
type tally struct {
	slots []int
	total int
}

// resetTally is tally's sound Reset: fewer than one slot is refused.
func resetTally(t *tally, n int) error {
	if n < 1 {
		return errors.New("no slots")
	}
	if cap(t.slots) < n {
		t.slots = make([]int, n)
	}
	t.slots, t.total = t.slots[:n], 0
	clear(t.slots)
	return nil
}

// useTally adds seeded amounts into the slots and the total, and
// observes both.
func useTally(t *tally, _ int, seed uint64, abandon bool) any {
	for i := range 12 {
		if abandon && i == 5 {
			return nil
		}
		t.slots[(int(seed)+i)%len(t.slots)] += i
		t.total += i * int(seed)
	}
	return []any{slices.Clone(t.slots), t.total}
}

// TestCheckReset: a sound Reset passes the law, and each unsound one
// fails it with the line that names its fault.
func TestCheckReset(t *testing.T) {
	for _, c := range []struct {
		name, want string // want "" for no violation
		reset      func(*tally, int) error
	}{
		{"sound", "", resetTally},
		{"forgets the total", "observes", func(t *tally, n int) error {
			total := t.total
			err := resetTally(t, n)
			t.total = total
			return err
		}},
		{"allocates on a seen configuration", "allocates", func(t *tally, n int) error {
			err := resetTally(t, n)
			t.slots = make([]int, len(t.slots))
			return err
		}},
		{"refused Reset mutates", "observes", func(t *tally, n int) error {
			t.total += min(n, 0)
			return resetTally(t, n)
		}},
		{"accepts a reject", "succeeded", func(t *tally, n int) error { return resetTally(t, max(n, 1)) }},
	} {
		problems := CheckReset(ResetRow[tally, int]{
			Fresh:   func(n int, seed uint64) any { return useTally(&tally{slots: make([]int, n)}, n, seed, false) },
			Reset:   c.reset,
			Use:     useTally,
			Configs: []int{3, 1, 8},
			Rejects: []int{0, -2},
		})
		if joined := strings.Join(problems, "\n"); c.want == "" && joined != "" || !strings.Contains(joined, c.want) {
			t.Errorf("%s: want a line containing %q, got:\n%s", c.name, c.want, joined)
		}
	}
}
