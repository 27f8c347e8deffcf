package device

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/kernels"
	"repro/internal/leakcheck"
	"repro/internal/sm"
)

// TestCalibrationCoversSuite keeps the cost table honest: every suite
// benchmark must have a positive calibrated weight (a new benchmark
// added without calibrating would silently fall back to raw thread
// count), each weight must be its SBI+SWI cell's cycles per thread in
// walk_stats.golden to four places (a timing change that rewrites the
// fixture fails here until the table is regenerated too), and the
// table must not accumulate entries for benchmarks that no longer
// exist.
func TestCalibrationCoversSuite(t *testing.T) {
	raw, err := os.ReadFile(walkGoldenPath)
	if err != nil {
		t.Fatalf("read golden fixture: %v", err)
	}
	cycles := make(map[string]int64)
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, sm.ArchSBISWI.String()+" "); ok {
			var name string
			var c int64
			if _, err := fmt.Sscanf(rest, "%s {Cycles:%d", &name, &c); err != nil {
				t.Fatalf("%s: unreadable line %q: %v", walkGoldenPath, line, err)
			}
			cycles[name] = c
		}
	}
	names := make(map[string]bool)
	for _, b := range kernels.All() {
		names[b.Name] = true
		w, ok := calibratedCyclesPerThread[b.Name]
		if !ok {
			t.Errorf("%s: missing from the calibration table — regenerate it (see calibration.go)", b.Name)
			continue
		}
		if w <= 0 {
			t.Errorf("%s: non-positive calibrated weight %g", b.Name, w)
		}
		c, ok := cycles[b.Name]
		if !ok {
			t.Errorf("%s: no %s cell in %s", b.Name, sm.ArchSBISWI, walkGoldenPath)
			continue
		}
		if want := math.Round(float64(c)/float64(b.Grid*b.Block)*1e4) / 1e4; w != want {
			t.Errorf("%s: calibrated weight %.4f, but %s says %d cycles over %d threads (%.4f) — regenerate the table (see calibration.go)",
				b.Name, w, walkGoldenPath, c, b.Grid*b.Block, want)
		}
	}
	calibrated := make([]string, 0, len(calibratedCyclesPerThread))
	for name := range calibratedCyclesPerThread { //sbwi:unordered names are sorted before use
		calibrated = append(calibrated, name)
	}
	sort.Strings(calibrated)
	for _, name := range calibrated {
		if !names[name] {
			t.Errorf("%s: calibrated but not in the suite — stale table entry", name)
		}
	}
}

// TestCalibratedCostOrdersTheTail pins the estimate quality the table
// buys: Histogram runs ~74 modeled cycles per thread and dominates the
// suite wall-clock despite launching fewer threads than Transpose
// (~1.2 cycles/thread) — raw grid×block ordered them backwards, the
// calibrated estimate must not.
func TestCalibratedCostOrdersTheTail(t *testing.T) {
	hist, ok := kernels.ByName("Histogram")
	if !ok {
		t.Fatal("Histogram missing")
	}
	tr, ok := kernels.ByName("Transpose")
	if !ok {
		t.Fatal("Transpose missing")
	}
	if hist.Grid*hist.Block >= tr.Grid*tr.Block {
		t.Fatal("test premise broken: Histogram should launch fewer threads than Transpose")
	}
	if staticCost(hist) <= staticCost(tr) {
		t.Errorf("staticCost(Histogram) = %d <= staticCost(Transpose) = %d — calibration lost the true ordering",
			staticCost(hist), staticCost(tr))
	}
	// Unknown benchmarks fall back to plain thread count.
	custom := &kernels.Benchmark{Name: "NotInTable", Grid: 3, Block: 64}
	if got, want := staticCost(custom), int64(3*64); got != want {
		t.Errorf("uncalibrated staticCost = %d, want thread count %d", got, want)
	}
}

// TestRunSuiteClaimsLongestFirst pins the one place work is ranked: with
// a single worker the first entry RunSuite claims — the one that meets
// hit 1 of the suite-worker fault site — is the entry with the largest
// static cost, wherever it stands in the input.
func TestRunSuiteClaimsLongestFirst(t *testing.T) {
	leakcheck.Check(t)
	suite := []*kernels.Benchmark{mustBench(t, "Transpose"), mustBench(t, "Histogram"), mustBench(t, "BFS")}
	heaviest := 0
	for i, b := range suite {
		if staticCost(b) > staticCost(suite[heaviest]) {
			heaviest = i
		}
	}
	if heaviest == 0 {
		t.Fatal("test premise broken: the heaviest entry must not be first in input order")
	}

	plan := faultinject.NewPlan(1, faultinject.Spec{
		{Site: faultinject.SiteSuiteWorker, Kind: faultinject.KindError, Hits: []uint64{1}},
	})
	dev, err := New(WithArch(sm.ArchSBISWI), WithWorkers(1), WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	results, err := dev.RunSuite(context.Background(), suite)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if failed := faultinject.IsInjected(r.Err); failed != (i == heaviest) {
			t.Errorf("%s (cost %d): err %v; the first claim must be %s, the largest static cost",
				r.Name(), staticCost(r.Bench), r.Err, suite[heaviest].Name)
		}
	}
}
