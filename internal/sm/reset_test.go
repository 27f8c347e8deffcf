package sm

import (
	"bytes"
	"context"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/progen"
	"repro/internal/sched"
	"repro/internal/statcheck"
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

// resetCase is one launch on one configuration: a launch built once,
// its image refilled from input before every run.
type resetCase struct {
	name       string
	cfg        Config
	l          *exec.Launch
	input      []byte
	start, end int
	opts       RunOpts
}

func (c *resetCase) String() string { return c.name }

// newResetCase builds the case of launch l, over its whole grid, on cfg.
func newResetCase(name string, cfg Config, l *exec.Launch) *resetCase {
	return &resetCase{name: name, cfg: cfg, l: l, input: bytes.Clone(l.Global), end: l.GridDim}
}

// resetCases lists all 22 suite kernels on all five architectures and
// n generated kernels in launch-storm's shapes (grid 1-4, block 32-128,
// 3-6 regions) on alternating architectures and configuration
// geometries, in an order shuffled by seed — so program length,
// shared-memory size, warps per block, warp width and count, stack or
// heap, lookup and L1 geometry and shuffle policy all change between
// consecutive entries. Every other entry runs behind
// a stub lower level, every third with a bounded trace.
func resetCases(t *testing.T, seed uint64, n int) []*resetCase {
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
	var cases []*resetCase
	add := func(b *kernels.Benchmark, a Arch, c Config) {
		cases = append(cases, newResetCase(b.Name+"/"+a.String(), c, benchLaunch(t, b, a)))
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
			cases = append(cases, newResetCase("dirty/"+a.String(), Configure(a), newLaunch(p, grid, 256, grid*256)))
		}
	}
	rand.New(rand.NewPCG(seed, 0x5e7)).Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
	for i, c := range cases {
		if i%2 == 1 {
			c.opts.Lower = stubLower{}
		}
		if i%3 == 0 {
			c.cfg.TraceCap = 64
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

// runnerRow is the Runner's row of the Reset ≡ New law
// (statcheck.CheckReset), without its configurations. A use refills the
// case's image and steps the Runner to completion, or abandons it after
// a seeded number of steps, up to 400. It observes the Result — Stats,
// trace — and the memory image, and counts what an earlier run left
// when it starts: warps in the ready, stale and sleeper sets, entries
// in the index and calendar lists, and contexts beyond the run's prefix
// that hold a block or the parameters of an earlier launch, which they
// would pin. A Runner built for the run has none. The fresh side is
// RunRangeOpts, which builds its Runner from zero.
func runnerRow(t *testing.T) statcheck.ResetRow[Runner, *resetCase] {
	return statcheck.ResetRow[Runner, *resetCase]{
		Fresh: func(c *resetCase, _ uint64) any {
			copy(c.l.Global, c.input)
			res, err := RunRangeOpts(context.Background(), c.cfg, c.l, c.start, c.end, c.opts)
			if err != nil {
				t.Fatalf("%s: fresh run: %v", c, err)
			}
			return []any{0, *res, bytes.Clone(c.l.Global)}
		},
		Reset: func(r *Runner, c *resetCase) error { return r.Reset(c.cfg, c.l, c.start, c.end, c.opts) },
		Use: func(r *Runner, c *resetCase, seed uint64, abandon bool) any {
			copy(c.l.Global, c.input)
			left := 0
			for _, set := range []warpBits{r.s.readySet, r.s.stale, r.s.sleepers, r.s.madSleepers, r.s.structSleepers} {
				for _, word := range set {
					left += bits.OnesCount64(word)
				}
			}
			for l := range numLists {
				if e := r.s.idx.end(l); r.s.idx.next[e] != e {
					left++
				}
			}
			for _, w := range r.s.ctxs[len(r.s.warps):] {
				if w.block != nil || w.env.Params != nil {
					left++
				}
			}
			for steps := seed * 0x9e3779b9 % 400; !abandon || steps > 0; steps-- {
				done, err := r.Step()
				if err != nil {
					t.Fatalf("%s: %v", c, err)
				}
				if done {
					return []any{left, *r.Result(), bytes.Clone(c.l.Global)}
				}
			}
			return nil
		},
	}
}

// TestResetFromAnyState walks the Runner's row of the Reset ≡ New law
// over a cycle of every suite kernel and generated kernels in random
// order: a Runner abandoned after a seeded-random number of steps —
// mid-divergence, at a barrier, with fills and scoreboard entries
// outstanding, warps asleep on the calendar, blocks resident — and
// Reset to a different launch equals a fresh run of that launch, its
// index empty, and a cycle of Resets over them all, bounded traces
// included, allocates nothing. The Result of each run is not disturbed
// by the abandoned and finished runs that follow it on the same Runner.
func TestResetFromAnyState(t *testing.T) {
	row := runnerRow(t)
	row.Configs, row.Cycle = resetCases(t, 2, 40), true
	use, fresh := row.Use, row.Fresh
	var got, prev, prevWant any
	midSleep := 0
	row.Use = func(r *Runner, c *resetCase, seed uint64, abandon bool) any {
		got = use(r, c, seed, abandon)
		if e := r.s.idx.end(calendar); abandon && r.s.idx.next[e] != e {
			midSleep++
		}
		return got
	}
	// The law asks for a fresh run right after each finished one: by
	// then the finished run before that has had its Runner used again.
	row.Fresh = func(c *resetCase, seed uint64) any {
		if prev != nil && !reflect.DeepEqual(prev, prevWant) {
			t.Error("a returned Result changed while its Runner was reused: it aliases shell memory")
		}
		prev, prevWant = got, fresh(c, seed)
		return prevWant
	}
	for _, p := range statcheck.CheckReset(row) {
		t.Error(p)
	}
	if midSleep == 0 {
		t.Error("no run was abandoned with a warp asleep: the Resets never cleared a calendar")
	}
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
			c := cases[i]
			if err := r.Reset(c.cfg, c.l, 0, c.l.GridDim, RunOpts{}); err != nil {
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

// TestRunnerResetEqualsNew walks the Runner's row of the Reset ≡ New
// law over a cycle: one Runner hosts all five architectures under every
// lookup associativity — so warp count and width, MAD groups, buddy
// sets and scoreboard mode change at every Reset — each run starting
// over an abandoned run of the next configuration. A bad
// configuration, CTA range or launch is refused as NewRunner refuses
// it, and leaves the Runner good for the run that follows. Once it has
// hosted every configuration, and so the largest, a whole cycle of
// Resets allocates nothing: a shell drawn for any device re-arms in the
// storage it has.
func TestRunnerResetEqualsNew(t *testing.T) {
	b, ok := kernels.ByName("Histogram")
	if !ok {
		t.Fatal("no Histogram kernel")
	}
	row := runnerRow(t)
	for _, assoc := range []int{sched.AssocFull, 11, 3, 1} {
		for _, a := range Architectures() {
			c := Configure(a)
			c.Assoc = assoc
			row.Configs = append(row.Configs, newResetCase(fmt.Sprintf("%s/assoc-%d", a, assoc), c, benchLaunch(t, b, a)))
		}
	}
	noWarps, pastGrid, noLaunch := *row.Configs[0], *row.Configs[0], *row.Configs[0]
	noWarps.name, noWarps.cfg.NumWarps = "no warps", 0
	pastGrid.name, pastGrid.end = "CTA range past the grid", pastGrid.l.GridDim+1
	noLaunch.name, noLaunch.l = "no launch", nil
	row.Rejects, row.Cycle = []*resetCase{&noWarps, &pastGrid, &noLaunch}, true
	for _, p := range statcheck.CheckReset(row) {
		t.Error(p)
	}
}
