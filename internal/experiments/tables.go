package experiments

import (
	"fmt"

	"repro/internal/area"
	"repro/internal/device"
	"repro/internal/sm"
)

// Table2 reproduces the micro-architecture parameter listing.
func Table2() *Table {
	archs := sm.Architectures()
	t := &Table{Title: "Table 2: micro-architecture parameters"}
	for _, a := range archs {
		t.Cols = append(t.Cols, a.String())
	}
	get := func(name string, f func(c sm.Config) string) {
		row := Row{Name: name}
		for _, a := range archs {
			row.Cells = append(row.Cells, str(f(sm.Configure(a))))
		}
		t.Rows = append(t.Rows, row)
	}
	get("Warps x width", func(c sm.Config) string { return fmt.Sprintf("%dx%d", c.NumWarps, c.WarpWidth) })
	get("Front-end delay", func(c sm.Config) string { return fmt.Sprintf("%d cyc", c.IssueDelay) })
	get("Execution latency", func(c sm.Config) string { return fmt.Sprintf("%d cyc", c.ExecLatency) })
	get("Scoreboard", func(c sm.Config) string {
		return fmt.Sprintf("%d/%s", c.ScoreboardEntries, c.DepMode)
	})
	get("MAD lanes", func(c sm.Config) string { return fmt.Sprintf("%dx%d", c.MADGroups, c.MADWidth) })
	get("SFU/LSU lanes", func(c sm.Config) string { return fmt.Sprintf("%d/%d", c.SFUWidth, c.LSUWidth) })
	get("L1D", func(c sm.Config) string {
		return fmt.Sprintf("%dK/%dw/%dB", c.Mem.L1Bytes/1024, c.Mem.L1Ways, c.Mem.BlockBytes)
	})
	get("Memory", func(c sm.Config) string {
		return fmt.Sprintf("%.0fB/cyc %dcyc", c.Mem.BytesPerCycle, c.Mem.MemLatency)
	})
	get("Constraints", func(c sm.Config) string { return fmt.Sprintf("%v", c.Constraints) })
	get("Lane shuffle", func(c sm.Config) string { return c.Shuffle.String() })
	return t
}

// Table3 reproduces the storage-requirement summary.
func Table3() *Table {
	g := area.PaperGeometry()
	t := &Table{Title: "Table 3: storage requirements per component"}
	for _, d := range area.Designs() {
		t.Cols = append(t.Cols, d.String())
	}
	for _, c := range area.Components() {
		row := Row{Name: c.String()}
		for _, d := range area.Designs() {
			s := area.StorageOf(g, c, d)
			cell := s.Desc
			if s.Bits > 0 {
				cell = fmt.Sprintf("%s (%d b)", s.Desc, s.Bits)
			}
			row.Cells = append(row.Cells, str(cell))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Table4 reproduces the area estimates (x1000 um^2, 40 nm).
func Table4() *Table {
	g, k := area.PaperGeometry(), area.PaperCoefficients()
	t := &Table{
		Title: "Table 4: area of each component (x1000 um^2)",
		Note:  "analytical bit-count model calibrated to the paper's synthesis results (DESIGN.md)",
	}
	for _, d := range area.Designs() {
		t.Cols = append(t.Cols, d.String())
	}
	for _, c := range area.Components() {
		row := Row{Name: c.String()}
		for _, d := range area.Designs() {
			v := area.AreaOf(g, k, c, d)
			if v == 0 {
				row.Cells = append(row.Cells, empty())
			} else {
				row.Cells = append(row.Cells, Cell{Val: v, Str: fmt.Sprintf("%.1f", v)})
			}
		}
		t.Rows = append(t.Rows, row)
	}
	total := Row{Name: "Total"}
	over := Row{Name: "Overhead"}
	pct := Row{Name: "Overhead (% SM)"}
	for _, d := range area.Designs() {
		total.Cells = append(total.Cells, Cell{Val: area.Total(g, k, d), Str: fmt.Sprintf("%.1f", area.Total(g, k, d))})
		abs, frac := area.Overhead(g, k, d)
		if d == area.Baseline {
			over.Cells = append(over.Cells, empty())
			pct.Cells = append(pct.Cells, empty())
		} else {
			over.Cells = append(over.Cells, Cell{Val: abs, Str: fmt.Sprintf("%.1f", abs)})
			pct.Cells = append(pct.Cells, Cell{Val: frac * 100, Str: fmt.Sprintf("%.1f%%", frac*100)})
		}
	}
	t.Rows = append(t.Rows, total, over, pct)
	return t
}

// registry is the one list of experiments, in the order sbwi-bench
// -exp all prints them: the paper's figures and tables, then the
// studies beyond it.
var registry = []struct {
	name string
	run  func(*Runner) (*Table, error)
}{
	{"fig7a", (*Runner).Fig7a},
	{"fig7b", (*Runner).Fig7b},
	{"fig8a", (*Runner).Fig8a},
	{"fig8b", (*Runner).Fig8b},
	{"fig9", (*Runner).Fig9},
	{"table2", static(Table2)},
	{"table3", static(Table3)},
	{"table4", static(Table4)},
	{"ablation-scoreboard", (*Runner).AblationScoreboard},
	{"ablation-memsplit", (*Runner).AblationMemSplit},
	{"ablation-execlat", (*Runner).AblationExecLatency},
	{"heap-pressure", (*Runner).HeapPressure},
	{"memory-hierarchy", (*Runner).MemoryHierarchy},
}

// static adapts a table that needs no simulation to the registry.
func static(table func() *Table) func(*Runner) (*Table, error) {
	return func(*Runner) (*Table, error) { return table(), nil }
}

// Experiments names every runnable experiment for the CLI, in registry
// order.
var Experiments = func() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}()

// Run executes one experiment by name. A Workers count above
// device.MaxWorkers is an error.
func (r *Runner) Run(name string) (*Table, error) {
	if r.Workers > device.MaxWorkers {
		return nil, fmt.Errorf("experiments: workers %d above %d", r.Workers, device.MaxWorkers)
	}
	for _, e := range registry {
		if e.name == name {
			return e.run(r)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Experiments)
}
