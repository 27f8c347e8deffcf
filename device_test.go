package sbwi

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// suiteSubset picks multi-wave kernels cheap enough to simulate
// repeatedly: their grids exceed the 4-CTA residency of the 64-wide
// architectures, so grid partitioning genuinely decomposes them.
func suiteSubset(t *testing.T) []*Benchmark {
	t.Helper()
	var out []*Benchmark
	for _, name := range []string{"Histogram", "BFS", "DWTHaar1D"} {
		b, ok := BenchmarkByName(name)
		if !ok {
			t.Fatalf("benchmark %s missing", name)
		}
		out = append(out, b)
	}
	return out
}

// TestLJFDispatchKeepsInputOrder asserts the batch scheduler's
// contract: longest-job-first dispatch returns results at their input
// index for every worker count. Auto-partitioning is enabled so the
// heavy-tail routing is exercised under every worker count too. That
// the Stats do not depend on any of it is the law table's
// (internal/device TestLaws).
func TestLJFDispatchKeepsInputOrder(t *testing.T) {
	suite := suiteSubset(t)
	for _, workers := range []int{1, 4, 8} {
		dev, err := NewDevice(
			WithArch(SBISWI),
			WithWorkers(workers),
			WithAutoPartition(true),
		)
		if err != nil {
			t.Fatal(err)
		}
		results, err := dev.RunSuite(context.Background(), suite)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if r.Bench != suite[i] {
				t.Fatalf("workers=%d: result %d is %s, want input order preserved", workers, i, r.Bench.Name)
			}
			if r.Err != nil {
				t.Fatalf("%s (workers=%d): %v", r.Bench.Name, workers, r.Err)
			}
		}
	}
}

// TestAutoPartitionRoutesExactlyTheTail pins the auto-partition
// policy's semantics: a heavy entry (static cost above the batch mean,
// multi-wave grid) carries the partitioned engine's statistics, while
// light entries stay cycle-exact with the whole-grid path. With the
// calibrated cost table, Histogram (~74 modeled cycles per thread —
// the batch's true wall-clock dominator, which raw grid×block ranked
// lightest) is the only entry above the batch mean.
func TestAutoPartitionRoutesExactlyTheTail(t *testing.T) {
	suite := suiteSubset(t) // Histogram, BFS, DWTHaar1D: only Histogram is above the calibrated mean
	auto, err := NewDevice(WithArch(SBISWI), WithAutoPartition(true))
	if err != nil {
		t.Fatal(err)
	}
	flat, err := NewDevice(WithArch(SBISWI))
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewDevice(WithArch(SBISWI), WithGridPartition(true))
	if err != nil {
		t.Fatal(err)
	}
	autoRes, err := auto.RunSuite(context.Background(), suite)
	if err != nil {
		t.Fatal(err)
	}
	flatRes, err := flat.RunSuite(context.Background(), suite)
	if err != nil {
		t.Fatal(err)
	}
	partRes, err := part.RunSuite(context.Background(), suite)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range suite {
		if autoRes[i].Err != nil || flatRes[i].Err != nil || partRes[i].Err != nil {
			t.Fatalf("%s: %v / %v / %v", b.Name, autoRes[i].Err, flatRes[i].Err, partRes[i].Err)
		}
		heavy := b.Name == "Histogram"
		want := flatRes[i].Result.Stats
		if heavy {
			want = partRes[i].Result.Stats
		}
		if !reflect.DeepEqual(autoRes[i].Result.Stats, want) {
			t.Errorf("%s (heavy=%v): auto-partitioned stats do not match the expected path", b.Name, heavy)
		}
		if heavy && reflect.DeepEqual(autoRes[i].Result.Stats, flatRes[i].Result.Stats) {
			t.Errorf("%s: expected the partitioned timing model to differ from the whole-grid run", b.Name)
		}
	}
}

// longRunningLaunch builds a launch that simulates for a long time: a
// large spin loop per thread over many CTAs.
func longRunningLaunch(t *testing.T) *Launch {
	t.Helper()
	prog, err := Assemble("spin", `
	mov  r1, 0
	mov  r2, 1000000
loop:
	iadd r1, r1, 1
	isetp.lt r3, r1, r2
	bra  r3, loop
	exit
`)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := ThreadFrontier(prog)
	if err != nil {
		t.Fatal(err)
	}
	return NewLaunch(tf, 64, 256, nil)
}

func TestRunCancellation(t *testing.T) {
	dev, err := NewDevice(WithArch(SBISWI), WithSMs(2), WithGridPartition(true))
	if err != nil {
		t.Fatal(err)
	}

	// Pre-cancelled context: must not simulate at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := dev.Run(ctx, longRunningLaunch(t)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run returned %v, want context.Canceled", err)
	}

	// Mid-flight cancellation: must return promptly with ctx.Err().
	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = dev.Run(ctx, longRunningLaunch(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancelled run took %v, want a prompt return", d)
	}
}

func TestRunSuiteCancellation(t *testing.T) {
	dev, err := NewDevice(WithArch(SBISWI))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := dev.RunSuite(ctx, suiteSubset(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunSuite on a cancelled context returned %v", err)
	}
	for _, r := range results {
		if r.Err == nil {
			t.Errorf("%s: expected a per-benchmark cancellation error", r.Bench.Name)
		}
	}
}

func TestRunSuiteOrderAndValidation(t *testing.T) {
	suite := Benchmarks()
	dev, err := NewDevice(WithArch(SBI))
	if err != nil {
		t.Fatal(err)
	}
	results, err := dev.RunSuite(context.Background(), suite)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(suite) {
		t.Fatalf("results = %d, want %d", len(results), len(suite))
	}
	for i, r := range results {
		if r.Bench != suite[i] {
			t.Errorf("result %d is %s, want input order preserved", i, r.Bench.Name)
		}
		if r.Err != nil {
			t.Errorf("%s: %v", r.Bench.Name, r.Err)
		} else if r.Result.Stats.IPC() <= 0 {
			t.Errorf("%s: empty simulation", r.Bench.Name)
		}
	}
}
