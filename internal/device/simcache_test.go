package device

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/kernels"
	"repro/internal/leakcheck"
	"repro/internal/sm"
)

// cacheSuite returns a small multi-wave subset cheap enough to simulate
// repeatedly.
func cacheSuite(t *testing.T) []*kernels.Benchmark {
	t.Helper()
	var out []*kernels.Benchmark
	for _, name := range []string{"Histogram", "BFS", "DWTHaar1D"} {
		b, ok := kernels.ByName(name)
		if !ok {
			t.Fatalf("benchmark %s missing", name)
		}
		out = append(out, b)
	}
	return out
}

func mustStats(t *testing.T, results []*SuiteResult) []sm.Stats {
	t.Helper()
	out := make([]sm.Stats, len(results))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name(), r.Err)
		}
		out[i] = r.Result.Stats
	}
	return out
}

// TestSimCacheConcurrentPasses is the cache's headline contract: many
// concurrent RunSuite passes over one shared cache (run under -race in
// CI) return bit-identical Stats, and after the first pass every cell
// is served from the cache — each (benchmark, configuration) simulates
// exactly once no matter how many passes ask for it.
func TestSimCacheConcurrentPasses(t *testing.T) {
	leakcheck.Check(t)
	suite := cacheSuite(t)
	cache := NewSimCache()
	dev, err := New(WithArch(sm.ArchSBISWI), WithSimCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	warm := mustStats(t, mustRunSuite(t, dev, suite))
	if got, want := cache.Misses(), uint64(len(suite)); got != want {
		t.Fatalf("cold pass misses = %d, want %d", got, want)
	}

	const passes = 4
	stats := make([][]sm.Stats, passes)
	var wg sync.WaitGroup
	for p := 0; p < passes; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			results, err := dev.RunSuite(context.Background(), suite)
			if err != nil {
				t.Error(err)
				return
			}
			s := make([]sm.Stats, len(results))
			for i, r := range results {
				if r.Err != nil {
					t.Errorf("%s: %v", r.Name(), r.Err)
					return
				}
				s[i] = r.Result.Stats
			}
			stats[p] = s
		}(p)
	}
	wg.Wait()
	for p := 0; p < passes; p++ {
		if !reflect.DeepEqual(stats[p], warm) {
			t.Errorf("pass %d stats differ from the first pass", p)
		}
	}
	if got, want := cache.Misses(), uint64(len(suite)); got != want {
		t.Errorf("misses after %d passes = %d, want %d (cells must simulate once)", passes, got, want)
	}
	if got, want := cache.Hits(), uint64(passes*len(suite)); got != want {
		t.Errorf("hits = %d, want %d", got, want)
	}
}

// TestSimCacheFingerprintMiss: a deliberately mutated configuration —
// differing in a field the old subset-style cache keys ignored — must
// miss the cache instead of aliasing the original cell.
func TestSimCacheFingerprintMiss(t *testing.T) {
	suite := cacheSuite(t)
	cache := NewSimCache()
	dev, err := New(WithArch(sm.ArchSBISWI), WithSimCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	mustRunSuite(t, dev, suite)
	base := cache.Misses()

	mutated, err := New(
		tweaked(sm.ArchSBISWI, func(c *sm.Config) { c.ExecLatency++ }),
		WithSimCache(cache),
	)
	if err != nil {
		t.Fatal(err)
	}
	mustRunSuite(t, mutated, suite)
	if got, want := cache.Misses()-base, uint64(len(suite)); got != want {
		t.Errorf("mutated config caused %d misses, want %d — cache key aliases configurations", got, want)
	}
	if cache.Hits() != 0 {
		t.Errorf("mutated config hit the cache %d times", cache.Hits())
	}

	// Same fingerprint, different device worker counts: must hit (the
	// worker count never changes results).
	w4, err := New(WithArch(sm.ArchSBISWI), WithWorkers(4), WithSimCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	mustRunSuite(t, w4, suite)
	if got, want := cache.Hits(), uint64(len(suite)); got != want {
		t.Errorf("worker-count change hit %d cells, want %d", got, want)
	}
}

// TestSimCachePartitionedKeysDistinct: the partitioned path's timing
// model legitimately differs from the whole-grid run, so partitioned
// and unpartitioned cells must occupy distinct cache entries.
func TestSimCachePartitionedKeysDistinct(t *testing.T) {
	suite := cacheSuite(t)
	cache := NewSimCache()
	flat, err := New(WithArch(sm.ArchSBISWI), WithSimCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	flatStats := mustStats(t, mustRunSuite(t, flat, suite))

	part, err := New(WithArch(sm.ArchSBISWI), WithSMs(2), WithGridPartition(true), WithSimCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	partStats := mustStats(t, mustRunSuite(t, part, suite))
	if got, want := cache.Misses(), uint64(2*len(suite)); got != want {
		t.Errorf("misses = %d, want %d (partitioned cells must not alias flat cells)", got, want)
	}
	if reflect.DeepEqual(flatStats, partStats) {
		t.Error("expected the partitioned timing model to differ for multi-wave kernels")
	}
}

// TestSuiteResultCached: SuiteResult.Cached says whether the entry was
// simulated for this call. False on a first pass, true on a second,
// always false without a cache; and of two concurrent passes asking for
// one cell exactly one simulates it — the other is served the finished
// cell or joins the fill in flight, Cached either way.
func TestSuiteResultCached(t *testing.T) {
	leakcheck.Check(t)
	suite := cacheSuite(t)
	cached := func(results []*SuiteResult) (n int) {
		for _, r := range results {
			if r.Cached {
				n++
			}
		}
		return n
	}

	plain, err := New(WithArch(sm.ArchSBISWI))
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		if n := cached(mustRunSuite(t, plain, suite)); n != 0 {
			t.Errorf("pass %d without WithSimCache: %d entries Cached, want 0", pass, n)
		}
	}

	dev, err := New(WithArch(sm.ArchSBISWI), WithSimCache(NewSimCache()))
	if err != nil {
		t.Fatal(err)
	}
	if n := cached(mustRunSuite(t, dev, suite)); n != 0 {
		t.Errorf("first pass: %d entries Cached, want 0", n)
	}
	if n := cached(mustRunSuite(t, dev, suite)); n != len(suite) {
		t.Errorf("second pass: %d entries Cached, want %d", n, len(suite))
	}

	racing, err := New(WithArch(sm.ArchSBI), WithSimCache(NewSimCache()))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	passes := make([][]*SuiteResult, 2)
	for p := range passes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results, err := racing.RunSuite(context.Background(), suite[:1])
			if err != nil || results[0].Err != nil {
				t.Errorf("concurrent pass %d: %v / %v", p, err, results[0].Err)
			}
			passes[p] = results
		}()
	}
	wg.Wait()
	if n := cached(passes[0]) + cached(passes[1]); n != 1 {
		t.Errorf("two concurrent passes over one cell: %d Cached, want exactly 1", n)
	}
}

func mustRunSuite(t *testing.T, d *Device, suite []*kernels.Benchmark) []*SuiteResult {
	t.Helper()
	results, err := d.RunSuite(context.Background(), suite)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name(), r.Err)
		}
	}
	return results
}
