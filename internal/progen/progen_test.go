package progen

import (
	"bytes"
	"testing"

	"repro/internal/cfg"
	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/sm"
)

// launchFor builds b's launch in the program variant architecture a
// runs.
func launchFor(t *testing.T, b *kernels.Benchmark, a sm.Arch) *exec.Launch {
	t.Helper()
	l, err := b.NewLaunch(a != sm.ArchBaseline)
	if err != nil {
		t.Fatalf("%v\n%s", err, b.Source)
	}
	return l
}

func TestGeneratedProgramsAssemble(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		g := New(seed)
		p, err := g.Program("fuzz", 6)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if p.Len() < 10 {
			t.Errorf("seed %d: suspiciously small program (%d instructions)", seed, p.Len())
		}
		if err := p.Validate(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestGeneratedProgramsAreFrontierOrdered(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		p, err := New(seed).Program("fuzz", 6)
		if err != nil {
			t.Fatal(err)
		}
		if v := cfg.ValidateFrontierLayout(p); len(v) > 0 {
			t.Errorf("seed %d: generator emitted non-frontier layout: %v", seed, v)
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a, err := New(7).Program("x", 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(7).Program("x", 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("same seed produced different programs")
	}
	for i := range a.Code {
		if a.Code[i] != b.Code[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}

	// The builder too: one (seed, regions, grid, block) is one launch and
	// one oracle image.
	k, k2 := Kernel(7, 5, 2, 64), Kernel(7, 5, 2, 64)
	if k.Source != k2.Source || k.Grid != k2.Grid || k.Block != k2.Block || !bytes.Equal(k.Expected(), k2.Expected()) {
		t.Fatal("the same builder inputs produced different kernels")
	}
}

// The heart of the harness: for dozens of random divergent programs,
// every architecture's cycle-level simulation must produce memory
// bit-identical to the functional reference.
func TestDifferentialAllArchitectures(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		b := Kernel(seed, 8, 2, 192)
		for _, a := range sm.Architectures() {
			l := launchFor(t, b, a)
			if _, err := sm.Run(sm.Configure(a), l); err != nil {
				t.Fatalf("seed %d on %s: %v\n%s", seed, a, err, b.Source)
			}
			if !bytes.Equal(l.Global, b.Expected()) {
				t.Fatalf("seed %d on %s: memory differs from reference\n%s", seed, a, b.Source)
			}
		}
	}
}

// Same differential under the extension knobs: memory-divergence
// splitting and disabled constraints must never change results.
func TestDifferentialExtensionKnobs(t *testing.T) {
	seeds := 15
	if testing.Short() {
		seeds = 4
	}
	for seed := uint64(100); seed < uint64(100+seeds); seed++ {
		b := Kernel(seed, 8, 2, 128)
		for _, variant := range []func(*sm.Config){
			func(c *sm.Config) { c.Constraints = false },
			func(c *sm.Config) { c.SplitOnMemDivergence = true },
			func(c *sm.Config) { c.Constraints = false; c.SplitOnMemDivergence = true },
		} {
			c := sm.Configure(sm.ArchSBISWI)
			variant(&c)
			l := launchFor(t, b, sm.ArchSBISWI)
			if _, err := sm.Run(c, l); err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, b.Source)
			}
			if !bytes.Equal(l.Global, b.Expected()) {
				t.Fatalf("seed %d: knob variant changed results\n%s", seed, b.Source)
			}
		}
	}
}

// Generated programs must actually diverge (otherwise the differential
// harness tests nothing interesting).
func TestGeneratedProgramsDiverge(t *testing.T) {
	diverged := 0
	for seed := uint64(1); seed <= 20; seed++ {
		res, err := sm.Run(sm.Configure(sm.ArchSBI), launchFor(t, Kernel(seed, 8, 1, 128), sm.ArchSBI))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Divergences > 0 {
			diverged++
		}
	}
	if diverged < 12 {
		t.Errorf("only %d/20 random programs diverged", diverged)
	}
}
