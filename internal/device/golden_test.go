package device

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sched"
	"repro/internal/sm"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden fixtures under testdata/ from the current simulator")

const walkGoldenPath = "testdata/walk_stats.golden"

// TestGoldenStats runs the suite on the default device — one SBI+SWI SM
// per launch, flat-latency DRAM, the paper-reproduction path, on every
// core — and holds each kernel's Stats to its SBI+SWI cell in
// walk_stats.golden, the one fixture that pins them. Any drift here
// changes the reproduced figures; the fixture is rewritten only by
// TestWalkStatsGolden's -update.
func TestGoldenStats(t *testing.T) {
	dev, err := New(WithArch(sm.ArchSBISWI))
	if err != nil {
		t.Fatal(err)
	}
	results, err := dev.RunSuite(context.Background(), kernels.All())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(walkGoldenPath)
	if err != nil {
		t.Fatalf("read golden fixture: %v", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, sm.ArchSBISWI.String()+" "); ok {
			name, _, _ := strings.Cut(rest, " ")
			want[name] = line
		}
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name(), r.Err)
		}
		s := &r.Result.Stats
		if got := fmt.Sprintf("%s %s %+v", sm.ArchSBISWI, r.Name(), *s); got != want[r.Name()] {
			t.Errorf("%s: default-config statistics drifted from %s (cycles %d, threadInstrs %d, issueSlots %d, ipc %.4f, l1Hits %d, l1Misses %d)\n got %s\nwant %s",
				r.Name(), walkGoldenPath, s.Cycles, s.ThreadInstrs, s.IssueSlots, s.IPC(), s.Mem.Hits, s.Mem.Misses, got, want[r.Name()])
		}
	}
	if len(results) != len(want) {
		t.Errorf("%d suite kernels, the fixture's %s cell has %d", len(results), sm.ArchSBISWI, len(want))
	}
}

// walkCell is one device configuration whose suite results TestWalkStatsGolden pins.
type walkCell struct {
	name  string
	opts  []Option
	bench []string // nil: the whole suite

	// flat, on the five architecture cells, is the law table's flat row,
	// whose suite part is the cell.
	flat []lawCell
}

func walkCells() []walkCell {
	var cells []walkCell
	for _, a := range sm.Architectures() {
		cells = append(cells, walkCell{name: a.String(), flat: flatRows()[a].cells})
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

// TestWalkStatsGolden pins every field of sm.Stats — headline, scoreboard,
// pair, unit, heap and memory counters — for the whole suite on every
// architecture (the law table's flat row), on
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
		if cell.flat != nil {
			for i, b := range kernels.All() {
				c := cell.flat[i]
				if c.err != nil {
					t.Fatalf("%s %s: %v", cell.name, b.Name, c.err)
				}
				fmt.Fprintf(&got, "%s %s %+v\n", cell.name, b.Name, c.res.Stats)
			}
			continue
		}
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
