package device

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sched"
	"repro/internal/sm"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden fixtures under testdata/ from the current simulator")

// goldenEntry pins the headline per-benchmark numbers of the default
// configuration (one SBI+SWI SM, flat-latency DRAM — the paper
// reproduction path). Any drift here changes the reproduced figures.
type goldenEntry struct {
	Cycles       int64   `json:"cycles"`
	ThreadInstrs uint64  `json:"threadInstrs"`
	IssueSlots   uint64  `json:"issueSlots"`
	IPC          float64 `json:"ipc"`
	L1Hits       uint64  `json:"l1Hits"`
	L1Misses     uint64  `json:"l1Misses"`
}

func goldenFromStats(s *sm.Stats) goldenEntry {
	return goldenEntry{
		Cycles:       s.Cycles,
		ThreadInstrs: s.ThreadInstrs,
		IssueSlots:   s.IssueSlots,
		IPC:          math.Round(s.IPC()*10000) / 10000,
		L1Hits:       s.Mem.Hits,
		L1Misses:     s.Mem.Misses,
	}
}

const goldenPath = "testdata/golden_stats.json"

// TestGoldenStats simulates the whole suite under the default device
// configuration and compares every benchmark's headline statistics
// against the checked-in fixture. It fails with one readable line per
// drifted number; run with -update to rewrite the fixture after an
// intentional timing-model change.
func TestGoldenStats(t *testing.T) {
	dev, err := New(WithArch(sm.ArchSBISWI))
	if err != nil {
		t.Fatal(err)
	}
	results, err := dev.RunSuite(context.Background(), kernels.All())
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]goldenEntry, len(results))
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name(), r.Err)
		}
		got[r.Name()] = goldenFromStats(&r.Result.Stats)
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d benchmarks", goldenPath, len(got))
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden fixture (regenerate with -update): %v", err)
	}
	var want map[string]goldenEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
	}

	var drift []string
	names := make([]string, 0, len(want))
	for name := range want { //sbwi:unordered names are sorted before use
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := want[name]
		g, ok := got[name]
		if !ok {
			drift = append(drift, fmt.Sprintf("%s: missing from the suite", name))
			continue
		}
		for _, d := range []struct {
			field     string
			got, want interface{}
		}{
			{"cycles", g.Cycles, w.Cycles},
			{"threadInstrs", g.ThreadInstrs, w.ThreadInstrs},
			{"issueSlots", g.IssueSlots, w.IssueSlots},
			{"ipc", g.IPC, w.IPC},
			{"l1Hits", g.L1Hits, w.L1Hits},
			{"l1Misses", g.L1Misses, w.L1Misses},
		} {
			if d.got != d.want {
				drift = append(drift, fmt.Sprintf("%-22s %-13s got %-12v want %v", name, d.field, d.got, d.want))
			}
		}
	}
	gotNames := make([]string, 0, len(got))
	for name := range got { //sbwi:unordered names are sorted before use
		gotNames = append(gotNames, name)
	}
	sort.Strings(gotNames)
	for _, name := range gotNames {
		if _, ok := want[name]; !ok {
			drift = append(drift, fmt.Sprintf("%s: new benchmark not in the fixture (run -update)", name))
		}
	}
	if len(drift) > 0 {
		t.Errorf("default-config statistics drifted from the golden fixture (%d numbers):\n  %s\nIf the change is intentional, regenerate with `go test ./internal/device -run TestGoldenStats -update`.",
			len(drift), strings.Join(drift, "\n  "))
	}
}

const walkGoldenPath = "testdata/walk_stats.golden"

// walkCell is one device configuration whose suite results TestWalkStatsGolden pins.
type walkCell struct {
	name  string
	opts  []Option
	bench []string // nil: the whole suite
}

func walkCells() []walkCell {
	var cells []walkCell
	for _, a := range sm.Architectures() {
		cells = append(cells, walkCell{name: a.String(), opts: []Option{WithArch(a)}})
	}
	for _, v := range []struct {
		name string
		mut  func(*sm.Config)
	}{
		{"dep-mask", func(c *sm.Config) { c.DepMode = sched.DepMask }},
		{"dep-warp", func(c *sm.Config) { c.DepMode = sched.DepWarp }},
		{"constraints-off", func(c *sm.Config) { c.Constraints = false }},
		{"mem-split", func(c *sm.Config) { c.SplitOnMemDivergence = true }},
		{"sb-entries-2", func(c *sm.Config) { c.ScoreboardEntries = 2 }},
		{"mirror-odd", func(c *sm.Config) { c.Shuffle = sched.ShuffleMirrorOdd }},
	} {
		cells = append(cells, walkCell{name: "SBI+SWI/" + v.name, opts: []Option{WithArch(sm.ArchSBISWI), WithModifier(v.mut)}})
	}
	l2 := []Option{WithArch(sm.ArchSBISWI), WithSMs(4), WithGridPartition(true), WithL2(mem.DefaultL2())}
	sweep := []string{"Transpose", "Histogram", "WriteStorm"}
	cells = append(cells, walkCell{name: "SBI+SWI/l2-4sm", opts: l2, bench: sweep})
	// A starved port (the timing sweep's low end) keeps the L1 miss
	// tables at their deepest backlog.
	for _, bw := range []float64{3, 8} {
		nc := noc.Default()
		nc.BytesPerCycle = bw
		cells = append(cells, walkCell{
			name:  fmt.Sprintf("SBI+SWI/l2-4sm-noc%g", bw),
			opts:  append(l2[:len(l2):len(l2)], WithInterconnect(nc)),
			bench: sweep,
		})
	}
	return cells
}

// TestWalkStatsGolden pins every field of sm.Stats — scoreboard, pair,
// unit, heap and memory counters, not only the headline numbers of
// TestGoldenStats — for the whole suite on every architecture, on
// SBI+SWI under each configuration that changes what the issue walk
// probes, and on the shared-clock L2 path at the default and two starved
// NoC port bandwidths. The fixture was written at the commit before the
// walk learned to skip stalled warps (the starved-NoC cells at the
// commit before the indexed MSHR table); a change to the walk or the
// memory layer compares against it and never regenerates it (-update is
// for an intentional timing-model change).
func TestWalkStatsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the suite on fourteen configurations")
	}
	var got strings.Builder
	for _, cell := range walkCells() {
		suite := kernels.All()
		if cell.bench != nil {
			suite = suite[:0:0]
			for _, name := range cell.bench {
				b, ok := kernels.ByName(name)
				if !ok {
					t.Fatalf("%s missing", name)
				}
				suite = append(suite, b)
			}
		}
		dev, err := New(cell.opts...)
		if err != nil {
			t.Fatal(err)
		}
		results, err := dev.RunSuite(context.Background(), suite)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("%s %s: %v", cell.name, r.Name(), r.Err)
			}
			fmt.Fprintf(&got, "%s %s %+v\n", cell.name, r.Name(), r.Result.Stats)
		}
	}
	if *updateGolden {
		if err := os.WriteFile(walkGoldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(walkGoldenPath)
	if err != nil {
		t.Fatalf("read golden fixture: %v", err)
	}
	wantLines := strings.Split(string(raw), "\n")
	gotLines := strings.Split(got.String(), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, fixture has %d", len(gotLines), len(wantLines))
	}
	drift := 0
	for i := range gotLines {
		if gotLines[i] == wantLines[i] {
			continue
		}
		if drift++; drift > 10 {
			continue
		}
		// One "Field:value" token per counter: name the ones that moved.
		g, w := strings.Fields(gotLines[i]), strings.Fields(wantLines[i])
		var moved []string
		for j := 0; j < len(g) && j < len(w); j++ {
			if g[j] != w[j] {
				moved = append(moved, fmt.Sprintf("got %s want %s", g[j], w[j]))
			}
		}
		t.Errorf("line %d (%s %s) drifted: %s", i+1, w[0], w[1], strings.Join(moved, "; "))
	}
	if drift > 0 {
		t.Errorf("%d of %d cells drifted from %s", drift, len(wantLines)-1, walkGoldenPath)
	}
}
