package kernels

import (
	"bytes"
	"testing"

	"repro/internal/cfg"
	"repro/internal/exec"
	"repro/internal/sm"
)

func TestSuiteComposition(t *testing.T) {
	if got := len(Regular()); got != 10 {
		t.Errorf("regular suite has %d kernels, want 10", got)
	}
	// The paper's eleven plus the synthetic WriteStorm anchor.
	if got := len(Irregular()); got != 12 {
		t.Errorf("irregular suite has %d kernels, want 12", got)
	}
	seen := map[string]bool{}
	for _, b := range All() {
		if seen[b.Name] {
			t.Errorf("duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
	}
	if _, ok := ByName("BFS"); !ok {
		t.Error("ByName(BFS) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) should fail")
	}
}

// Every kernel's functional simulation must match its Go reference
// bit for bit, for both program variants (plain and SYNC-instrumented).
func TestReferenceOracle(t *testing.T) {
	for _, b := range All() {
		for _, tf := range []bool{false, true} {
			name := b.Name
			if tf {
				name += "/tf"
			}
			t.Run(name, func(t *testing.T) {
				l, err := b.NewLaunch(tf)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := exec.RunReference(l, 32); err != nil {
					t.Fatal(err)
				}
				want := b.Expected()
				if !bytes.Equal(l.Global, want) {
					t.Fatalf("%s: functional simulation diverges from Go reference", b.Name)
				}
			})
		}
	}
}

// The frontier-layout property must hold for every kernel except TMD1,
// whose violation is the point of the benchmark.
func TestFrontierLayout(t *testing.T) {
	for _, b := range All() {
		p, err := b.Program(false)
		if err != nil {
			t.Fatal(err)
		}
		v := cfg.ValidateFrontierLayout(p)
		if b.Name != "TMD1" && len(v) > 0 {
			t.Errorf("%s: unexpected layout violations: %v", b.Name, v)
		}
		if b.Name == "TMD1" && len(v) == 0 {
			t.Errorf("%s: expected layout violations, found none", b.Name)
		}
	}
}

// TMD1 and TMD2 must compute the same function.
func TestTMDVariantsAgree(t *testing.T) {
	t1, _ := ByName("TMD1")
	t2, _ := ByName("TMD2")
	e1, e2 := t1.Expected(), t2.Expected()
	if !bytes.Equal(e1, e2) {
		t.Fatal("TMD1 and TMD2 references disagree")
	}
	l1, err := t1.NewLaunch(true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.RunReference(l1, 32); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(l1.Global, e1) {
		t.Fatal("TMD1 run diverges from TMD2 reference")
	}
}

// SortingNetworks must actually sort each block's segment ascending.
func TestSortingNetworksSorts(t *testing.T) {
	b, _ := ByName("SortingNetworks")
	out := image(b.Expected())
	const elems = 256
	for blk := 0; blk < b.Grid; blk++ {
		for i := 1; i < elems; i++ {
			if out.getI(blk*elems+i-1) > out.getI(blk*elems+i) {
				t.Fatalf("block %d not ascending at %d", blk, i)
			}
		}
	}
}

// BFS must have expanded the frontier: some unvisited node gains the
// next level.
func TestBFSExpands(t *testing.T) {
	b, _ := ByName("BFS")
	g, _ := b.Setup(b)
	before := image(g)
	out := image(b.Expected())
	n := b.Grid * b.Block
	expanded := 0
	for v := 0; v < n; v++ {
		if before.getI(v) == -1 && out.getI(v) == 2 {
			expanded++
		}
	}
	if expanded == 0 {
		t.Error("BFS expanded nothing")
	}
}

// Setup must be deterministic: two images must be identical.
func TestSetupDeterministic(t *testing.T) {
	for _, b := range All() {
		g1, p1 := b.Setup(b)
		g2, p2 := b.Setup(b)
		if !bytes.Equal(g1, g2) || p1 != p2 {
			t.Errorf("%s: non-deterministic setup", b.Name)
		}
	}
}

// Every kernel on the cycle simulator must match the reference, across
// all five architectures. This is the end-to-end gate for the whole
// stack (assembler, CFG analysis, reconvergence, scheduling, memory).
func TestCycleSimMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite cycle simulation")
	}
	for _, b := range All() {
		want := b.Expected()
		for _, a := range sm.Architectures() {
			t.Run(b.Name+"/"+a.String(), func(t *testing.T) {
				l, err := b.NewLaunch(a != sm.ArchBaseline)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sm.Run(sm.Configure(a), l)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(l.Global, want) {
					t.Fatalf("%s on %s: wrong results", b.Name, a)
				}
				if res.Stats.IPC() <= 0 {
					t.Errorf("%s on %s: IPC %f", b.Name, a, res.Stats.IPC())
				}
			})
		}
	}
}

// The irregular suite must actually diverge and the regular suite must
// stay (nearly) converged, per the paper's classification.
func TestDivergenceClassification(t *testing.T) {
	for _, b := range All() {
		l, err := b.NewLaunch(true)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sm.Run(sm.Configure(sm.ArchSBI), l)
		if err != nil {
			t.Fatal(err)
		}
		perBlock := float64(res.Stats.Divergences) / float64(b.Grid)
		if !b.Regular && res.Stats.Divergences == 0 {
			t.Errorf("%s is classified irregular but never diverged", b.Name)
		}
		if b.Regular && perBlock > 64 {
			t.Errorf("%s is classified regular but diverged %.0f times per block", b.Name, perBlock)
		}
	}
}

// Golden cycle counts: lock the timing model's output on a few
// kernel/architecture pairs so accidental changes to scheduling,
// latency or memory modeling are caught. Update deliberately when the
// model changes, never silently.
func TestGoldenCycleCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("golden timing check")
	}
	golden := []struct {
		kernel string
		arch   sm.Arch
		cycles int64
	}{
		{"MatrixMul", sm.ArchBaseline, 8886},
		{"MatrixMul", sm.ArchSBI, 8386},
		{"MatrixMul", sm.ArchSWI, 7236},
		{"MatrixMul", sm.ArchSBISWI, 7218},
		{"MatrixMul", sm.ArchWarp64, 8894},
		{"Mandelbrot", sm.ArchBaseline, 11758},
		{"Mandelbrot", sm.ArchSBI, 11472},
		{"Mandelbrot", sm.ArchSWI, 9156},
		{"Mandelbrot", sm.ArchSBISWI, 9342},
		{"Mandelbrot", sm.ArchWarp64, 12222},
		{"TMD1", sm.ArchBaseline, 14525},
		{"TMD1", sm.ArchSBI, 25910},
		{"TMD2", sm.ArchBaseline, 14019},
		{"TMD2", sm.ArchSBI, 12827},
		{"LUD", sm.ArchSWI, 7143},
	}
	for _, g := range golden {
		b, ok := ByName(g.kernel)
		if !ok {
			t.Fatalf("missing %s", g.kernel)
		}
		l, err := b.NewLaunch(g.arch != sm.ArchBaseline)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sm.Run(sm.Configure(g.arch), l)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Cycles != g.cycles {
			t.Errorf("%s on %s: %d cycles, golden %d", g.kernel, g.arch, res.Stats.Cycles, g.cycles)
		}
	}
}
