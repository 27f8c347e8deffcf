package sm

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/progen"
	"repro/internal/sched"
)

// A recycled Runner must be indistinguishable from a new one: these
// tests re-Reset one Runner through launches that change everything a
// shell sizes itself by, and compare every run with sm.RunRangeOpts,
// which builds its Runner from zero.

// stubLower is a stateless lower level, so the recycled run and its
// fresh twin see the same memory system.
type stubLower struct{}

func (stubLower) Access(now int64, store bool, block uint32) int64 {
	return now + 40 + int64(block>>7&7)
}

// resetCase is one launch on one configuration; mk builds it anew
// (fresh memory image) on every call.
type resetCase struct {
	name string
	cfg  Config
	mk   func() *exec.Launch
}

// resetCases lists all 22 suite kernels on all five architectures and
// n generated kernels in launch-storm's shapes (grid 1-4, block 32-128,
// 3-6 regions) on alternating architectures and configuration
// geometries, in an order shuffled by seed — so program length,
// shared-memory size, warps per block, warp width and count, stack or
// heap, lookup and L1 geometry and shuffle policy all change between
// consecutive entries. Every other entry runs behind
// a stub lower level, every third with a bounded trace.
func resetCases(t *testing.T, seed uint64, n int) []resetCase {
	t.Helper()
	// What a shell sizes or derives from the configuration, each changed
	// on its own against the table-2 defaults.
	geometries := []func(*Config){
		func(*Config) {},
		func(c *Config) { c.Assoc = 4 },
		func(c *Config) { c.NumWarps = 8 },
		func(c *Config) { c.Assoc = 1; c.Shuffle = sched.ShuffleMirrorOdd },
		func(c *Config) { c.WarpWidth = 32 },
		func(c *Config) { c.Mem.L1Bytes = 12 * 1024; c.Mem.StoreQueue = 2; c.ScoreboardEntries = 3 },
		func(c *Config) { c.Seed = 0x1234; c.Shuffle = sched.ShuffleMirrorHalf; c.DepMode = sched.DepMask },
	}
	var cases []resetCase
	add := func(b *kernels.Benchmark, a Arch, c Config) {
		cases = append(cases, resetCase{b.Name + "/" + a.String(), c, func() *exec.Launch { return benchLaunch(t, b, a) }})
	}
	for _, b := range kernels.All() {
		for _, a := range Architectures() {
			add(b, a, Configure(a))
		}
	}
	for i := 0; i < n; i++ {
		a := Architectures()[i%len(Architectures())]
		c := Configure(a)
		geometries[i/5%len(geometries)](&c)
		add(progen.Kernel(seed*1000+uint64(i)+1, 3+i/16%4, 1+i%4, 32*(1+i/4%4)), a, c)
	}
	// A kernel that reports what it finds in a register and a
	// shared-memory word it never wrote, then dirties both: it stores 0
	// exactly when its block started on zeroed state.
	for _, a := range Architectures() {
		p := assembleFor(t, "dirty", dirtyStateSrc, a)
		for _, grid := range []int{2, 5} {
			cases = append(cases, resetCase{"dirty/" + a.String(), Configure(a), func() *exec.Launch {
				return newLaunch(p, grid, 256, grid*256)
			}})
		}
	}
	rand.New(rand.NewPCG(seed, 0x5e7)).Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
	for i := range cases {
		if i%3 == 0 {
			cases[i].cfg.TraceCap = 64
		}
	}
	return cases
}

const dirtyStateSrc = `
.shared 1024
	mov  r1, %tid
	shl  r2, r1, 2
	ld.s r3, [r2]
	iadd r4, r3, r20
	mov  r20, 77
	iadd r5, r1, 1
	st.s [r2], r5
	mov  r6, %ctaid
	mov  r7, %ntid
	imad r8, r6, r7, r1
	shl  r8, r8, 2
	st.g [r8], r4
	exit
`

func lowerFor(i int) RunOpts {
	if i%2 == 1 {
		return RunOpts{Lower: mem.Lower(stubLower{})}
	}
	return RunOpts{}
}

// runRecycled re-arms r for the case and steps it to completion.
func runRecycled(t *testing.T, r *Runner, c *resetCase, opts RunOpts) (*Result, *exec.Launch) {
	t.Helper()
	l := c.mk()
	if err := r.Reset(c.cfg, l, 0, l.GridDim, opts); err != nil {
		t.Fatalf("%s: Reset: %v", c.name, err)
	}
	checkIndexEmpty(t, c.name, &r.s)
	for {
		done, err := r.Step()
		if err != nil {
			t.Fatalf("%s: recycled run: %v", c.name, err)
		}
		if done {
			return r.Result(), l
		}
	}
}

// checkIndexEmpty requires a shell just Reset to hold no ready, stale or
// sleeping warp and an empty index and calendar, whatever the run it
// abandoned left there.
func checkIndexEmpty(t *testing.T, name string, s *SM) {
	t.Helper()
	for l := range numLists {
		if e := s.idx.end(l); s.idx.next[e] != e || s.idx.prev[e] != e {
			t.Fatalf("%s: Reset left list %d linking %d and %d", name, l, s.idx.next[e], s.idx.prev[e])
		}
	}
	for i, set := range []warpBits{s.readySet, s.stale, s.sleepers, s.madSleepers, s.structSleepers} {
		for _, word := range set {
			if word != 0 {
				t.Fatalf("%s: Reset left warp set %d holding %#x", name, i, word)
			}
		}
	}
}

// checkEqualsFresh compares a recycled run with a run of the same case
// on a Runner built from zero.
func checkEqualsFresh(t *testing.T, c *resetCase, opts RunOpts, got *Result, gotL *exec.Launch) {
	t.Helper()
	l := c.mk()
	want, err := RunRangeOpts(context.Background(), c.cfg, l, 0, l.GridDim, opts)
	if err != nil {
		t.Fatalf("%s: fresh run: %v", c.name, err)
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: recycled Stats differ from a fresh run's\nrecycled %+v\nfresh    %+v", c.name, got.Stats, want.Stats)
	}
	if !bytes.Equal(gotL.Global, l.Global) {
		t.Fatalf("%s: recycled run left a different memory image", c.name)
	}
	if !reflect.DeepEqual(got.Trace, want.Trace) {
		t.Fatalf("%s: recycled trace differs from a fresh run's", c.name)
	}
}

// snapshot deep-copies a Result, so comparing it with the original
// later shows whether the Result shares memory its Runner reuses.
func snapshot(res *Result) *Result {
	cp := *res
	if res.Trace != nil {
		tr := *res.Trace
		tr.Events = slices.Clone(tr.Events)
		cp.Trace = &tr
	}
	return &cp
}

// TestResetFromAnyState: a Runner abandoned after a seeded-random
// number of steps — mid-divergence, at a barrier, with fills and
// scoreboard entries outstanding, warps asleep on the calendar, blocks
// resident — and Reset to a different launch holds an empty index and
// equals a fresh run of that launch; and the Result of each run is not
// disturbed by the abandoned and finished runs that follow it on the
// same Runner.
func TestResetFromAnyState(t *testing.T) {
	cases := resetCases(t, 2, 40)
	rng := rand.New(rand.NewPCG(2, 0xabad))
	r := new(Runner)
	var prev, prevCopy *Result
	midSleep := 0
	for i := range cases {
		// Abandon a run of some other case part-way (or, now and then,
		// right after Reset or exactly at completion).
		o := &cases[rng.IntN(len(cases))]
		ol := o.mk()
		if err := r.Reset(o.cfg, ol, 0, ol.GridDim, lowerFor(i+1)); err != nil {
			t.Fatalf("%s: Reset: %v", o.name, err)
		}
		for steps := rng.IntN(400); steps > 0; steps-- {
			done, err := r.Step()
			if err != nil {
				t.Fatalf("%s: %v", o.name, err)
			}
			if done {
				break
			}
		}
		if e := r.s.idx.end(calendar); r.s.idx.next[e] != e {
			midSleep++
		}
		opts := lowerFor(i)
		got, l := runRecycled(t, r, &cases[i], opts)
		checkEqualsFresh(t, &cases[i], opts, got, l)
		if prev != nil && !reflect.DeepEqual(prev, prevCopy) {
			t.Fatalf("%s: a returned Result changed while its Runner was reused: it aliases shell memory", cases[i-1].name)
		}
		prev, prevCopy = got, snapshot(got)
	}
	if midSleep == 0 {
		t.Error("no run was abandoned with a warp asleep: the Resets never cleared a calendar")
	}
}

// TestResetDropsAbandonedLaunch: a Baseline run abandoned with blocks on
// all 32 of its warp contexts, then a Warp64 run on the same Runner,
// which uses the first 16: the contexts beyond the prefix must let go of the
// abandoned launch, which is collectable while the Runner lives on.
func TestResetDropsAbandonedLaunch(t *testing.T) {
	r := new(Runner)
	freed := make(chan struct{})
	func() {
		c := Configure(ArchBaseline)
		l := newLaunch(assembleFor(t, "dirty", dirtyStateSrc, ArchBaseline), 5, 256, 5*256)
		runtime.SetFinalizer(l, func(*exec.Launch) { close(freed) })
		if err := r.Reset(c, l, 0, l.GridDim, RunOpts{}); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
		for _, w := range r.s.warps {
			if w.block == nil {
				t.Fatalf("warp %d hosts no block: the abandoned run does not fill every context", w.id)
			}
		}
	}()
	c := Configure(ArchWarp64)
	l := newLaunch(assembleFor(t, "dirty", dirtyStateSrc, ArchWarp64), 2, 256, 2*256)
	if err := r.Reset(c, l, 0, l.GridDim, RunOpts{}); err != nil {
		t.Fatal(err)
	}
	for done := false; !done; {
		var err error
		if done, err = r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	r.Result()
	if len(r.s.ctxs) != 32 || len(r.s.warps) != c.NumWarps {
		t.Fatalf("the Runner holds %d contexts and runs %d, want 32 and %d", len(r.s.ctxs), len(r.s.warps), c.NumWarps)
	}
	defer runtime.KeepAlive(r)
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Error("the abandoned launch is still reachable from the Runner")
}

// TestResetRejectsLikeNewRunner: a bad launch is refused by Reset on a
// used Runner exactly as by NewRunner, and the Runner stays good for
// the next launch.
func TestResetRejectsLikeNewRunner(t *testing.T) {
	cases := resetCases(t, 3, 4)
	r := new(Runner)
	runRecycled(t, r, &cases[0], RunOpts{})
	l := cases[1].mk()
	bad := cases[1].cfg
	bad.NumWarps = 0
	for _, c := range []struct {
		name  string
		reset func() error
	}{
		{"config", func() error { return r.Reset(bad, l, 0, l.GridDim, RunOpts{}) }},
		{"CTA range", func() error { return r.Reset(cases[1].cfg, l, 0, l.GridDim+1, RunOpts{}) }},
		{"launch", func() error { return r.Reset(cases[1].cfg, nil, 0, 1, RunOpts{}) }},
	} {
		if err := c.reset(); err == nil {
			t.Errorf("Reset with a bad %s succeeded", c.name)
		}
	}
	got, gl := runRecycled(t, r, &cases[2], RunOpts{})
	checkEqualsFresh(t, &cases[2], RunOpts{}, got, gl)
}

// TestHotWordsOwnTheirLines: the few words the walk reads every cycle
// and writes at every issue — readySet with the sleeper and stale sets,
// slotOf, the index, the buddy-set masks, the MAD groups' free times —
// come in blocks of whole cache lines, which the allocator aligns to the
// line, whatever geometry the shell was last sized for. Smaller blocks
// land beside another worker's shell now and then and every write then
// costs the other core a miss; a sixteen-byte block would pass here one
// time in four, so the test asks every array of every shell it builds.
func TestHotWordsOwnTheirLines(t *testing.T) {
	cases := resetCases(t, 3, 40)
	for shell := 0; shell < 4; shell++ {
		r := new(Runner)
		for i := shell; i < len(cases); i += 4 {
			c := &cases[i]
			l := c.mk()
			if err := r.Reset(c.cfg, l, 0, l.GridDim, RunOpts{}); err != nil {
				t.Fatalf("%s: Reset: %v", c.name, err)
			}
			s := &r.s
			type span struct {
				name  string
				words any
			}
			hot := []span{{"readySet", s.readySet}, {"slotOf", s.slotOf}, {"index", s.idx.next}, {"keys", s.idx.key}, {"madFree", s.units.madFree}}
			if len(s.setBits) > 0 {
				hot = append(hot, span{"setBits", s.setBits[0]})
			}
			for _, b := range hot {
				if p := reflect.ValueOf(b.words).Pointer(); p%cacheLine != 0 {
					t.Errorf("%s: %s starts at %#x, %d bytes into a cache line", c.name, b.name, p, p%cacheLine)
				}
			}
			for i, set := range []warpBits{s.sleepers, s.madSleepers, s.structSleepers, s.stale} {
				if reflect.ValueOf(set).Pointer() != reflect.ValueOf(s.readySet).Pointer()+uintptr(8*(i+1)*len(s.readySet)) {
					t.Errorf("%s: warp set %d does not follow readySet in its block", c.name, i)
				}
			}
			if p := reflect.ValueOf(s.idx.prev).Pointer(); p != reflect.ValueOf(s.idx.next).Pointer()+uintptr(4*len(s.idx.next)) {
				t.Errorf("%s: the index's prev links do not follow its next links in their block", c.name)
			}
		}
	}
}

// TestResetKeepsStorageAcrossConfigurations: one Runner cycles all five
// architectures under every lookup associativity — so warp count and
// width, MAD groups, buddy sets and scoreboard mode change at every
// Reset — and each run, started over a run of the next configuration
// abandoned with loads in flight, equals a fresh Runner's. Once it has
// hosted every configuration, and so the largest, a whole cycle of
// Resets allocates nothing: a shell drawn for any device re-arms in the
// storage it has.
func TestResetKeepsStorageAcrossConfigurations(t *testing.T) {
	b, ok := kernels.ByName("Histogram")
	if !ok {
		t.Fatal("no Histogram kernel")
	}
	var cases []resetCase
	for _, assoc := range []int{sched.AssocFull, 11, 3, 1} {
		for _, a := range Architectures() {
			c := Configure(a)
			c.Assoc = assoc
			cases = append(cases, resetCase{fmt.Sprintf("%s/assoc-%d", a, assoc), c, func() *exec.Launch { return benchLaunch(t, b, a) }})
		}
	}
	r := new(Runner)
	ls := make([]*exec.Launch, len(cases))
	for i := range cases {
		o := &cases[(i+1)%len(cases)]
		ol := o.mk()
		if err := r.Reset(o.cfg, ol, 0, ol.GridDim, RunOpts{}); err != nil {
			t.Fatalf("%s: Reset: %v", o.name, err)
		}
		for range 200 {
			if _, err := r.Step(); err != nil {
				t.Fatalf("%s: %v", o.name, err)
			}
		}
		got, l := runRecycled(t, r, &cases[i], RunOpts{})
		checkEqualsFresh(t, &cases[i], RunOpts{}, got, l)
		ls[i] = l
	}
	allocs := testing.AllocsPerRun(5, func() {
		for i, c := range cases {
			if err := r.Reset(c.cfg, ls[i], 0, ls[i].GridDim, RunOpts{}); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("a cycle of %d Resets over configurations the Runner has hosted allocates %.0f times, want 0", len(cases), allocs)
	}
}
