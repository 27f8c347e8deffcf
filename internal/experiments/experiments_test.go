package experiments

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/leakcheck"
	"repro/internal/sm"
)

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title: "demo",
		Cols:  []string{"a", "b"},
		Rows: []Row{
			{Name: "x", Cells: []Cell{num(1.5), str("hi")}},
			{Name: "y", Cells: []Cell{empty(), num(2)}},
		},
		Note: "n",
	}
	text := tb.Text()
	for _, want := range []string{"demo", "x", "1.50", "hi", "-", "note: n"} {
		if !strings.Contains(text, want) {
			t.Errorf("Text missing %q in:\n%s", want, text)
		}
	}
	csv := tb.CSV()
	if !strings.Contains(csv, "name,a,b") || !strings.Contains(csv, "x,1.5,hi") {
		t.Errorf("CSV wrong:\n%s", csv)
	}
}

func TestStaticTables(t *testing.T) {
	t2 := Table2()
	if len(t2.Rows) < 8 || len(t2.Cols) != 5 {
		t.Errorf("table2 shape: %d rows x %d cols", len(t2.Rows), len(t2.Cols))
	}
	t3 := Table3()
	if !strings.Contains(t3.Text(), "24x 201-bit") {
		t.Error("table3 missing HCT organization")
	}
	t4 := Table4()
	text := t4.Text()
	for _, want := range []string{"Total", "Overhead", "3.7%"} {
		if !strings.Contains(text, want) {
			t.Errorf("table4 missing %q", want)
		}
	}
}

func TestRunnerCachesAndValidates(t *testing.T) {
	r := NewRunner()
	b, _ := kernels.ByName("TMD2")
	cfg := sm.Configure(sm.ArchSBI)
	s1, err := r.Stats(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r.Stats(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("second call should hit the cache")
	}
	r.mu.Lock()
	n := len(r.cache)
	r.mu.Unlock()
	if n != 1 {
		t.Errorf("cache size = %d", n)
	}
}

func TestRunnerProgress(t *testing.T) {
	var buf bytes.Buffer
	r := NewRunner()
	r.Progress = &buf
	b, _ := kernels.ByName("Histogram")
	if _, err := r.Stats(b, sm.Configure(sm.ArchWarp64)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Histogram") {
		t.Error("progress line missing")
	}
}

// TestPrefetchProgressOrder: whatever order the requests arrive in and
// the simulations finish in, Prefetch reports one line per new cell,
// configuration by configuration in first-request order, and nothing for
// cells it already holds.
func TestPrefetchProgressOrder(t *testing.T) {
	leakcheck.Check(t)
	var buf bytes.Buffer
	r := NewRunner()
	r.Progress = &buf
	archs := []sm.Arch{sm.ArchSBI, sm.ArchSWI}
	names := []string{"Transpose", "Histogram", "BlackScholes"}
	var reqs []Request
	var want []string
	for _, name := range names {
		b, ok := kernels.ByName(name)
		if !ok {
			t.Fatalf("benchmark %s missing", name)
		}
		for _, a := range archs { // benchmark-major: the groups interleave
			reqs = append(reqs, Request{Bench: b, Cfg: sm.Configure(a)})
		}
	}
	for _, a := range archs {
		for _, name := range names {
			want = append(want, name+" "+a.String())
		}
	}
	if err := r.Prefetch(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if f := strings.Fields(line); len(f) >= 2 {
			got = append(got, f[0]+" "+f[1])
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("progress lines = %q, want config-major %q", got, want)
	}
	buf.Reset()
	if err := r.Prefetch(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("second Prefetch of cached cells reported %q, want nothing", buf.String())
	}
}

// TestPrefetchBuildsEveryDeviceFirst: a configuration the device rejects
// fails the whole Prefetch before any simulation of any other
// configuration starts — nothing may still be running, and filling the
// shared cache, once Prefetch has returned.
func TestPrefetchBuildsEveryDeviceFirst(t *testing.T) {
	r := NewRunner()
	// Registered before leakcheck so it runs after leakcheck has waited
	// for any straggling simulation to finish and count its miss.
	t.Cleanup(func() {
		if n := r.sims.Misses(); n != 0 {
			t.Errorf("%d simulations started behind a failed Prefetch, want 0", n)
		}
	})
	leakcheck.Check(t)
	b, _ := kernels.ByName("Transpose")
	bad := sm.Configure(sm.ArchSWI)
	bad.WarpWidth = 3
	err := r.Prefetch(context.Background(), []Request{
		{Bench: b, Cfg: sm.Configure(sm.ArchSBI)},
		{Bench: b, Cfg: bad},
	})
	if err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Fatalf("Prefetch with an invalid configuration returned %v, want the validation error", err)
	}
	r.mu.Lock()
	n := len(r.cache)
	r.mu.Unlock()
	if n != 0 {
		t.Errorf("%d cells cached behind a failed Prefetch, want 0", n)
	}
}

func TestRunUnknown(t *testing.T) {
	r := NewRunner()
	if _, err := r.Run("nope"); err == nil {
		t.Error("unknown experiment must error")
	}
}

func TestGmean(t *testing.T) {
	if g := gmean([]float64{2, 8}); g != 4 {
		t.Errorf("gmean = %f", g)
	}
	if g := gmean(nil); g != 0 {
		t.Errorf("gmean(nil) = %f", g)
	}
}

// The full figure pipeline on the cheapest figure: 8(b) shares most
// configurations via the cache, so run figure 9 on a single benchmark
// suite to keep the test fast; here we check figure 8(a) end to end on
// the real suite since SBI runs are comparatively cheap.
func TestFig8aEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment")
	}
	r := NewRunner()
	tab, err := r.Fig8a()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(kernels.Irregular())+1 {
		t.Errorf("rows = %d", len(tab.Rows))
	}
	last := tab.Rows[len(tab.Rows)-1]
	if last.Name != "Gmean" {
		t.Errorf("last row = %s", last.Name)
	}
	// Constraint speedups should sit near 1.0 (paper: ~0.1% effect).
	g := last.Cells[0].Val
	if g < 0.8 || g > 1.25 {
		t.Errorf("SBI constraint speedup gmean = %.3f, expected near 1", g)
	}
}
