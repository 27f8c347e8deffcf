package replay

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/statcheck"
)

func TestStreamRoundTrip(t *testing.T) {
	r := NewRecorder(2, 2) // threads 0..3
	k := r.Sink()
	if !k.Matches(2, 2) || k.Matches(2, 4) {
		t.Fatal("sink geometry check wrong")
	}

	// Thread 1: branch pattern spanning a word boundary plus addresses.
	pattern := func(i int) bool { return i%3 == 0 }
	for i := 0; i < 70; i++ {
		k.Branch(1, pattern(i))
	}
	k.Mem(1, 0, 0, 0x40, true, false)
	k.Mem(1, 0, 0, 0x44, true, true)
	// Thread 2: shared access only — no address stream entry.
	k.Mem(2, 1, 0, 0x10, false, false)

	tr := r.Finalize()
	if !tr.Replayable {
		t.Fatalf("race-free recording not replayable: %s", tr.Reason)
	}
	if !tr.Matches(2, 2) || tr.Matches(1, 2) || tr.Threads() != 4 {
		t.Fatal("trace geometry wrong")
	}

	s, err := NewSession(tr, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 70; i++ {
		taken, ok := s.Branch(1)
		if !ok || taken != pattern(i) {
			t.Fatalf("branch %d: got (%v, %v), want (%v, true)", i, taken, ok, pattern(i))
		}
	}
	if _, ok := s.Branch(1); ok {
		t.Fatal("exhausted branch stream still returned ok")
	}

	// Peek is idempotent; only Consume advances.
	for i := 0; i < 3; i++ {
		if a, ok := s.PeekAddr(1); !ok || a != 0x40 {
			t.Fatalf("peek %d: got (%#x, %v), want (0x40, true)", i, a, ok)
		}
	}
	s.ConsumeAddr(1)
	if a, ok := s.PeekAddr(1); !ok || a != 0x44 {
		t.Fatalf("after consume: got (%#x, %v), want (0x44, true)", a, ok)
	}
	s.ConsumeAddr(1)
	if _, ok := s.PeekAddr(1); ok {
		t.Fatal("exhausted address stream still returned ok")
	}
	if err := s.Finish(); err != nil {
		t.Fatalf("fully consumed session: %v", err)
	}
}

func TestFinishDetectsLeftovers(t *testing.T) {
	r := NewRecorder(1, 2)
	k := r.Sink()
	k.Branch(0, true)
	k.Mem(1, 0, 0, 0x8, true, false)
	tr := r.Finalize()

	s, err := NewSession(tr, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Finish(); err == nil || !strings.Contains(err.Error(), "branch outcomes") {
		t.Fatalf("unconsumed branch stream not reported: %v", err)
	}
	s.Branch(0)
	if err := s.Finish(); err == nil || !strings.Contains(err.Error(), "memory addresses") {
		t.Fatalf("unconsumed address stream not reported: %v", err)
	}
	s.ConsumeAddr(1)
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionResetEqualsNew is the replay session's row of the Reset ≡
// New law (statcheck.CheckReset), over traces of three geometries, each
// over its whole grid and over its last CTA. A use observes the cursors
// a Reset left and then reads one branch outcome and one address of a
// seeded thread. A range beyond the grid, an empty range and a trace
// that is not replayable are refused.
func TestSessionResetEqualsNew(t *testing.T) {
	type span struct {
		tr         *Trace
		start, end int
	}
	use := func(s *Session, c span, seed uint64, _ bool) any {
		seen := Session{s.t, s.base, s.end, slices.Clone(s.branchPos), slices.Clone(s.addrPos)}
		tid := s.base + int(seed)%(s.end-s.base)
		s.Branch(tid)
		s.ConsumeAddr(tid)
		return seen
	}
	var spans []span
	for _, g := range [][2]int{{2, 2}, {4, 8}, {1, 3}} { // grid, block
		r := NewRecorder(g[0], g[1])
		k := r.Sink()
		for tid := range g[0] * g[1] {
			k.Branch(tid, tid%3 == 0)
			k.Mem(tid, tid/g[1], 0, uint32(4*tid), true, true)
		}
		tr := r.Finalize()
		spans = append(spans, span{tr, 0, g[0]}, span{tr, g[0] - 1, g[0]})
	}
	racy := NewRecorder(1, 2)
	k := racy.Sink()
	k.Mem(0, 0, 0, 0x0, true, true)
	k.Mem(1, 0, 0, 0x0, true, false)
	for _, p := range statcheck.CheckReset(statcheck.ResetRow[Session, span]{
		Fresh: func(c span, seed uint64) any {
			s, err := NewSession(c.tr, c.start, c.end)
			if err != nil {
				t.Fatal(err)
			}
			return use(s, c, seed, false)
		},
		Reset:   func(s *Session, c span) error { return s.Reset(c.tr, c.start, c.end) },
		Use:     use,
		Configs: spans,
		Rejects: []span{{spans[2].tr, 0, 5}, {spans[2].tr, 2, 2}, {racy.Finalize(), 0, 1}},
	}) {
		t.Error(p)
	}
}

func TestSessionValidation(t *testing.T) {
	r := NewRecorder(4, 8)
	tr := r.Finalize()
	if _, err := NewSession(tr, 0, 5); err == nil {
		t.Fatal("range beyond the grid accepted")
	}
	if _, err := NewSession(tr, 2, 2); err == nil {
		t.Fatal("empty range accepted")
	}
	s, err := NewSession(tr, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Matches(4, 8, 1, 3) || s.Matches(4, 8, 0, 3) || s.Matches(4, 4, 1, 3) {
		t.Fatal("session geometry check wrong")
	}

	racy := NewRecorder(1, 2)
	k := racy.Sink()
	k.Mem(0, 0, 0, 0x0, true, true)
	k.Mem(1, 0, 0, 0x0, true, false)
	if _, err := NewSession(racy.Finalize(), 0, 1); err == nil {
		t.Fatal("session over a non-replayable trace accepted")
	}
}

// raceCase builds an access log via a sink and returns the verdict.
func verdict(t *testing.T, accesses func(k *Sink)) (bool, string) {
	t.Helper()
	r := NewRecorder(2, 4)
	k := r.Sink()
	accesses(k)
	tr := r.Finalize()
	return tr.Replayable, tr.Reason
}

func TestRaceAnalysis(t *testing.T) {
	cases := []struct {
		name     string
		accesses func(k *Sink)
		want     bool
		reason   string // substring of Reason when !want
	}{
		{"read-read shared word", func(k *Sink) {
			k.Mem(0, 0, 0, 0x20, true, false)
			k.Mem(1, 0, 0, 0x20, true, false)
			k.Mem(5, 1, 0, 0x20, true, false)
		}, true, ""},
		{"disjoint words", func(k *Sink) {
			k.Mem(0, 0, 0, 0x20, true, true)
			k.Mem(1, 0, 0, 0x24, true, true)
		}, true, ""},
		{"same-thread store then load", func(k *Sink) {
			k.Mem(3, 0, 0, 0x20, true, true)
			k.Mem(3, 0, 0, 0x20, true, false)
		}, true, ""},
		{"store+load, same block, same epoch", func(k *Sink) {
			k.Mem(0, 0, 0, 0x20, true, true)
			k.Mem(1, 0, 0, 0x20, true, false)
		}, false, "unordered threads"},
		{"store+store, same block, same epoch", func(k *Sink) {
			k.Mem(0, 0, 0, 0x20, true, true)
			k.Mem(1, 0, 0, 0x20, true, true)
		}, false, "unordered threads"},
		{"store+load ordered by a barrier", func(k *Sink) {
			k.Mem(0, 0, 0, 0x20, true, true)
			k.Mem(1, 0, 1, 0x20, true, false)
		}, true, ""},
		{"store+store across epochs", func(k *Sink) {
			k.Mem(0, 0, 0, 0x20, true, true)
			k.Mem(1, 0, 1, 0x20, true, true)
		}, true, ""},
		{"cross-block store+load", func(k *Sink) {
			k.Mem(0, 0, 0, 0x20, true, true)
			k.Mem(5, 1, 0, 0x20, true, false)
		}, false, "unordered blocks"},
		{"cross-block store+load, barriers irrelevant", func(k *Sink) {
			k.Mem(0, 0, 3, 0x20, true, true)
			k.Mem(5, 1, 7, 0x20, true, false)
		}, false, "unordered blocks"},
		{"shared conflict inside one block", func(k *Sink) {
			k.Mem(0, 0, 0, 0x10, false, true)
			k.Mem(1, 0, 0, 0x10, false, false)
		}, false, "shared word"},
		{"shared words in different blocks never alias", func(k *Sink) {
			k.Mem(0, 0, 0, 0x10, false, true)
			k.Mem(5, 1, 0, 0x10, false, true)
		}, true, ""},
		{"shared and global words never alias", func(k *Sink) {
			k.Mem(0, 0, 0, 0x10, false, true)
			k.Mem(1, 0, 0, 0x10, true, false)
		}, true, ""},
		{"another block reads between a block's store and load", func(k *Sink) {
			k.Mem(0, 0, 0, 0x20, true, true)
			k.Mem(5, 1, 0, 0x20, true, false)
			k.Mem(1, 0, 0, 0x20, true, false)
		}, false, "unordered blocks"},
		{"blocks take turns reading", func(k *Sink) {
			k.Mem(0, 0, 0, 0x20, true, false)
			k.Mem(5, 1, 0, 0x20, true, false)
			k.Mem(1, 0, 0, 0x20, true, false)
		}, true, ""},
		{"conflict in an early epoch, later epochs clean", func(k *Sink) {
			k.Mem(0, 0, 0, 0x20, true, true)
			k.Mem(1, 0, 0, 0x20, true, false)
			k.Mem(1, 0, 1, 0x20, true, false)
			k.Mem(1, 0, 2, 0x20, true, false)
		}, false, "unordered threads"},
		{"lowest racy word is reported", func(k *Sink) {
			k.Mem(0, 0, 0, 0x1000, true, true)
			k.Mem(1, 0, 0, 0x1000, true, true)
			k.Mem(0, 0, 0, 0x30, true, true)
			k.Mem(1, 0, 0, 0x30, true, true)
		}, false, "global word 0x30 "},
		// An access the shadow words cannot represent, or one that shows
		// the caller broke the sink contract, fails closed: no wrap, no
		// panic, no verdict from state that may be wrong.
		{"a block's epoch goes backwards on a word", func(k *Sink) {
			k.Mem(0, 0, 3, 0x20, true, false)
			k.Mem(1, 0, 2, 0x20, true, false)
		}, false, "contract violated: block 0 accessed global word 0x20 at barrier epoch 2 after epoch 3"},
		{"epoch too large for the shadow word", func(k *Sink) {
			k.Mem(0, 0, maxEpoch, 0x20, true, false)
		}, false, "contract violated: thread 0 of block 0 at barrier epoch 67108864"},
		{"negative epoch", func(k *Sink) {
			k.Mem(0, 0, -1, 0x20, true, false)
		}, false, "contract violated: thread 0 of block 0 at barrier epoch -1"},
		{"thread id too large for the shadow word", func(k *Sink) {
			k.Mem(maxTid, maxTid/4, 0, 0x10, false, false)
		}, false, "contract violated: thread 2147483648 of block 536870912"},
		{"thread outside its block", func(k *Sink) {
			k.Mem(1, 1, 0, 0x20, true, false)
		}, false, "contract violated: thread 1 of block 1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ok, reason := verdict(t, c.accesses)
			if ok != c.want {
				t.Fatalf("replayable = %v (%s), want %v", ok, reason, c.want)
			}
			if !c.want && !strings.Contains(reason, c.reason) {
				t.Fatalf("reason %q does not mention %q", reason, c.reason)
			}
		})
	}
}

// TestRaceVerdictOrderIndependent feeds one access set in every arrival
// order the sink contract allows — each CTA pinned to its sink, CTAs 0
// and 1 sharing one, a CTA's own accesses in epoch order, everything
// else permuted, the sinks created in either order — and expects one
// verdict: the race analysis must be a pure function of the set, not of
// how concurrent recording interleaved.
func TestRaceVerdictOrderIndependent(t *testing.T) {
	accs := []acc{
		{tid: 0, cta: 0, epoch: 0, addr: 0x20, global: true},
		{tid: 1, cta: 0, epoch: 1, addr: 0x24, global: true, store: true},
		{tid: 4, cta: 1, epoch: 0, addr: 0x28, global: true},
		{tid: 5, cta: 1, epoch: 2, addr: 0x24, global: true},
		{tid: 8, cta: 2, epoch: 0, addr: 0x20, global: true, store: true},
	}
	// 0x24 races inside one sink; the lower 0x20 only across the two.
	const want = "global word 0x20 written and accessed by unordered blocks"
	orders := 0
	var permute func(order []int, used uint)
	permute = func(order []int, used uint) {
		if len(order) < len(accs) {
			for i, a := range accs {
				// accs lists a CTA's accesses in epoch order: i may go
				// next only after every earlier access of its CTA.
				ok := used&(1<<i) == 0
				for j := 0; j < i && ok; j++ {
					ok = accs[j].cta != a.cta || used&(1<<j) != 0
				}
				if ok {
					permute(append(order, i), used|1<<i)
				}
			}
			return
		}
		orders++
		for _, swap := range []bool{false, true} {
			r := NewRecorder(3, 4)
			k01, k2 := r.Sink(), r.Sink()
			if swap {
				k01, k2 = k2, k01
			}
			for _, i := range order {
				if accs[i].cta == 2 {
					accs[i].feed(k2)
				} else {
					accs[i].feed(k01)
				}
			}
			if tr := r.Finalize(); tr.Replayable || tr.Reason != want {
				t.Fatalf("arrival order %v (sinks swapped: %v): replayable %v, reason %q, want %q", order, swap, tr.Replayable, tr.Reason, want)
			}
		}
	}
	permute(nil, 0)
	if orders != 30 { // 5! / (2! · 2! · 1!)
		t.Fatalf("%d arrival orders tried, want 30", orders)
	}
}

// TestFinalizeTwice: a second Finalize must return the first one's
// trace, not a verdict over sinks the first call already consumed.
func TestFinalizeTwice(t *testing.T) {
	r := NewRecorder(1, 2)
	k := r.Sink()
	k.Mem(0, 0, 0, 0x20, true, true)
	k.Mem(1, 0, 0, 0x20, true, false)
	first, second := r.Finalize(), r.Finalize()
	for _, tr := range []*Trace{first, second} {
		if tr.Replayable || !strings.Contains(tr.Reason, "unordered threads") {
			t.Fatalf("store+load in one epoch: replayable %v, reason %q", tr.Replayable, tr.Reason)
		}
	}
	if first != second {
		t.Fatal("second Finalize built a new trace")
	}
}
