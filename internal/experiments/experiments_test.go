package experiments

import (
	"bytes"
	"context"
	"encoding/csv"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
	out := tb.CSV()
	if !strings.Contains(out, "name,a,b") || !strings.Contains(out, "x,1.5,hi") {
		t.Errorf("CSV wrong:\n%s", out)
	}
	// A field holding the separator is quoted, not split.
	tb.Rows[0].Cells[1] = str("24x 64-bit, dual-ported")
	rows, err := csv.NewReader(strings.NewReader(tb.CSV())).ReadAll()
	if err != nil || len(rows) != 3 || rows[1][2] != "24x 64-bit, dual-ported" {
		t.Errorf("CSV with a comma in a cell parsed as %q, %v", rows, err)
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

// benches looks the named suite kernels up.
func benches(t *testing.T, names ...string) []*kernels.Benchmark {
	t.Helper()
	var out []*kernels.Benchmark
	for _, name := range names {
		b, ok := kernels.ByName(name)
		if !ok {
			t.Fatalf("benchmark %s missing", name)
		}
		out = append(out, b)
	}
	return out
}

// plain returns one plain table-2 point per architecture.
func plain(archs ...sm.Arch) []point {
	var out []point
	for _, a := range archs {
		out = append(out, point{cfg: sm.Configure(a)})
	}
	return out
}

// TestRunnerCachesAndValidates: the simulation cache is the runner's
// only memo — a repeated sweep simulates nothing and hands back the very
// result the first one produced.
func TestRunnerCachesAndValidates(t *testing.T) {
	r := NewRunner()
	suite, points := benches(t, "TMD2"), plain(sm.ArchSBI)
	first, err := r.sweep(context.Background(), suite, points)
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.sweep(context.Background(), suite, points)
	if err != nil {
		t.Fatal(err)
	}
	if first[0][0] == nil || first[0][0] != second[0][0] {
		t.Errorf("second sweep returned %p, want the cached %p", second[0][0], first[0][0])
	}
	if m, h := r.sims.Misses(), r.sims.Hits(); m != 1 || h != 1 {
		t.Errorf("two sweeps of one cell: %d misses, %d hits; want 1 and 1", m, h)
	}
}

func TestRunnerProgress(t *testing.T) {
	var buf bytes.Buffer
	r := NewRunner()
	r.Progress = &buf
	if _, err := r.sweep(context.Background(), benches(t, "Histogram"), plain(sm.ArchWarp64)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Histogram") {
		t.Error("progress line missing")
	}
}

// TestPrefetchProgressOrder: whatever order the simulations finish in, a
// sweep reports one line per cell it simulated, point by point in suite
// order, nothing for cells the cache already holds, and nothing for
// quiet points.
func TestPrefetchProgressOrder(t *testing.T) {
	leakcheck.Check(t)
	var buf bytes.Buffer
	r := NewRunner()
	r.Progress = &buf
	names := []string{"Transpose", "Histogram", "BlackScholes"}
	suite := benches(t, names...)
	logged := func() (got []string) {
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			if f := strings.Fields(line); len(f) >= 2 {
				got = append(got, f[0]+" "+f[1])
			}
		}
		buf.Reset()
		return got
	}
	want := func(archs ...sm.Arch) (lines []string) {
		for _, a := range archs {
			for _, name := range names {
				lines = append(lines, name+" "+a.String())
			}
		}
		return lines
	}

	if _, err := r.sweep(context.Background(), suite, plain(sm.ArchSBI, sm.ArchSWI)); err != nil {
		t.Fatal(err)
	}
	if got, want := logged(), want(sm.ArchSBI, sm.ArchSWI); !reflect.DeepEqual(got, want) {
		t.Errorf("progress lines = %q, want point-major %q", got, want)
	}
	if _, err := r.sweep(context.Background(), suite, plain(sm.ArchSBI, sm.ArchSWI)); err != nil {
		t.Fatal(err)
	}
	if got := logged(); got != nil {
		t.Errorf("a repeated sweep of cached cells reported %q, want nothing", got)
	}
	if _, err := r.sweep(context.Background(), suite, plain(sm.ArchSWI, sm.ArchWarp64, sm.ArchSBI)); err != nil {
		t.Fatal(err)
	}
	if got, want := logged(), want(sm.ArchWarp64); !reflect.DeepEqual(got, want) {
		t.Errorf("a sweep with one new point reported %q, want only %q", got, want)
	}
	quiet := plain(sm.ArchSBISWI)
	quiet[0].quiet = true
	if _, err := r.sweep(context.Background(), suite, quiet); err != nil {
		t.Fatal(err)
	}
	if got := logged(); got != nil {
		t.Errorf("a quiet sweep reported %q, want nothing", got)
	}
}

// TestPrefetchBuildsEveryDeviceFirst: a point the device rejects fails
// the whole sweep before any simulation of any other point starts —
// nothing may still be running, and filling the shared cache, once sweep
// has returned.
func TestPrefetchBuildsEveryDeviceFirst(t *testing.T) {
	r := NewRunner()
	// Registered before leakcheck so it runs after leakcheck has waited
	// for any straggling simulation to finish and count its miss.
	t.Cleanup(func() {
		if n := r.sims.Misses(); n != 0 {
			t.Errorf("%d simulations started behind a failed sweep, want 0", n)
		}
	})
	leakcheck.Check(t)
	points := plain(sm.ArchSBI, sm.ArchSWI)
	points[1].cfg.WarpWidth = 3
	_, err := r.sweep(context.Background(), benches(t, "Transpose"), points)
	if err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Fatalf("sweep with an invalid configuration returned %v, want the validation error", err)
	}
}

// gateWriter counts Write calls that overlap another, and holds its
// first Write open until release is closed.
type gateWriter struct {
	active, overlaps atomic.Int32
	first            sync.Once
	entered, release chan struct{}
}

func (w *gateWriter) Write(p []byte) (int, error) {
	if w.active.Add(1) > 1 {
		w.overlaps.Add(1)
	}
	defer w.active.Add(-1)
	w.first.Do(func() {
		close(w.entered)
		<-w.release
	})
	return len(p), nil
}

// TestConcurrentSweepsSerialiseProgress: the runner promises to be safe
// for concurrent use, and Progress is any io.Writer, so two sweeps at
// once may never be inside Write together. One sweep is held inside its
// first Write while a second runs all its simulations and reaches its
// own report.
func TestConcurrentSweepsSerialiseProgress(t *testing.T) {
	leakcheck.Check(t)
	w := &gateWriter{entered: make(chan struct{}), release: make(chan struct{})}
	r := NewRunner()
	r.Progress = w
	suite := benches(t, "Transpose", "Histogram", "BlackScholes", "TMD2")
	var wg sync.WaitGroup
	run := func(a sm.Arch) {
		defer wg.Done()
		if _, err := r.sweep(context.Background(), suite, plain(a)); err != nil {
			t.Error(err)
		}
	}
	wg.Add(2)
	go run(sm.ArchSBI)
	<-w.entered
	go run(sm.ArchSWI)
	for r.sims.Len() < 2*len(suite) {
		time.Sleep(time.Millisecond)
	}
	// Every simulation of the second sweep is done; all that is left of
	// it is the report. Absence of a Write cannot be waited for, so give
	// it ample time to get there.
	time.Sleep(100 * time.Millisecond)
	close(w.release)
	wg.Wait()
	if n := w.overlaps.Load(); n != 0 {
		t.Errorf("%d Progress writes overlapped another sweep's", n)
	}
}

// TestConcurrentFiguresEqualSerial: three figures sharing cells (heap
// pressure's only point is one of figure 8(a)'s) rendered at once on one
// runner equal the same figures from a runner that ran them one by one.
func TestConcurrentFiguresEqualSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiments")
	}
	leakcheck.Check(t)
	figures := []func(*Runner) (*Table, error){(*Runner).Fig8a, (*Runner).Fig9, (*Runner).HeapPressure}
	serial, shared := NewRunner(), NewRunner()
	got := make([]*Table, len(figures))
	var wg sync.WaitGroup
	for i, fig := range figures {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if got[i], err = fig(shared); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, fig := range figures {
		want, err := fig(serial)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != nil && got[i].Text() != want.Text() {
			t.Errorf("concurrent table differs from serial:\n%s\nwant\n%s", got[i].Text(), want.Text())
		}
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
