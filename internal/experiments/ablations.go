package experiments

import (
	"repro/internal/kernels"
	"repro/internal/sched"
	"repro/internal/sm"
)

// Ablation studies for the simulator's design choices. These go beyond
// the paper's published figures: they quantify the cost of each
// approximation the paper's hardware makes.

// AblationScoreboard compares the three dependency-tracking rules on
// the SBI architecture over the irregular suite: the paper's
// dependency-matrix design (§3.4), the exact per-entry execution-mask
// oracle the paper rejects for storage cost, and the conservative
// per-warp rule of the baseline. IPC of each, normalized to the matrix
// design.
func (r *Runner) AblationScoreboard() (*Table, error) {
	modes := []struct {
		name string
		mode sched.DepMode
	}{
		{"matrix (paper)", sched.DepMatrix},
		{"exact mask", sched.DepMask},
		{"per-warp", sched.DepWarp},
	}
	cfgs := []sm.Config{sm.Configure(sm.ArchSBI)}
	for _, m := range modes {
		cfg := sm.Configure(sm.ArchSBI)
		cfg.DepMode = m.mode
		cfgs = append(cfgs, cfg)
	}
	if err := r.prefetchMatrix(kernels.Irregular(), cfgs); err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Ablation: SBI scoreboard dependency rule (IPC relative to the dependency-matrix design)",
		Note:  "exact mask >= matrix >= per-warp expected: each is strictly less conservative",
	}
	for _, m := range modes {
		t.Cols = append(t.Cols, m.name)
	}
	ratios := make([][]float64, len(modes))
	for _, b := range kernels.Irregular() {
		base := sm.Configure(sm.ArchSBI)
		sBase, err := r.Stats(b, base)
		if err != nil {
			return nil, err
		}
		row := Row{Name: b.Name}
		for i, m := range modes {
			cfg := sm.Configure(sm.ArchSBI)
			cfg.DepMode = m.mode
			s, err := r.Stats(b, cfg)
			if err != nil {
				return nil, err
			}
			v := s.IPC() / sBase.IPC()
			row.Cells = append(row.Cells, num(v))
			if !excludeFromMeans(b.Name) {
				ratios[i] = append(ratios[i], v)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	mean := Row{Name: "Gmean"}
	for i := range modes {
		mean.Cells = append(mean.Cells, num(gmean(ratios[i])))
	}
	t.Rows = append(t.Rows, mean)
	return t, nil
}

// AblationMemSplit evaluates the DWS-style memory-divergence warp
// splitting extension (related work the paper discusses): SBI+SWI with
// the knob on versus off over the irregular suite.
func (r *Runner) AblationMemSplit() (*Table, error) {
	{
		off := sm.Configure(sm.ArchSBISWI)
		on := off
		on.SplitOnMemDivergence = true
		if err := r.prefetchMatrix(kernels.Irregular(), []sm.Config{off, on}); err != nil {
			return nil, err
		}
	}
	t := &Table{
		Title: "Ablation: memory-divergence warp splitting (SBI+SWI, speedup of split over no-split)",
		Cols:  []string{"speedup", "splits/1k-issues"},
		Note:  "hit threads run ahead while miss threads replay the load (DWS-style)",
	}
	var ratios []float64
	for _, b := range kernels.Irregular() {
		off := sm.Configure(sm.ArchSBISWI)
		on := off
		on.SplitOnMemDivergence = true
		sOff, err := r.Stats(b, off)
		if err != nil {
			return nil, err
		}
		sOn, err := r.Stats(b, on)
		if err != nil {
			return nil, err
		}
		v := sOn.IPC() / sOff.IPC()
		rate := 1000 * float64(sOn.MemSplits) / float64(sOn.IssueSlots)
		t.Rows = append(t.Rows, Row{Name: b.Name, Cells: []Cell{num(v), num(rate)}})
		if !excludeFromMeans(b.Name) {
			ratios = append(ratios, v)
		}
	}
	t.Rows = append(t.Rows, Row{Name: "Gmean", Cells: []Cell{num(gmean(ratios)), empty()}})
	return t, nil
}

// HeapPressure reports the thread-frontier heap statistics per
// irregular kernel under SBI: peak live warp-splits, merges per 1000
// issues, and the insertions a bounded-throughput sideband sorter
// would have had to defer (this quantifies the perfect-sort
// substitution reconv.Heap makes).
func (r *Runner) HeapPressure() (*Table, error) {
	if err := r.prefetchMatrix(kernels.Irregular(), []sm.Config{sm.Configure(sm.ArchSBI)}); err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Heap pressure under SBI (per irregular kernel)",
		Cols:  []string{"max splits", "merges/1k-issues", "deferred inserts", "CCT overflows"},
		Note:  "prior work: heap size rarely exceeds 3 (paper 3.4)",
	}
	for _, b := range kernels.Irregular() {
		s, err := r.Stats(b, sm.Configure(sm.ArchSBI))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Row{Name: b.Name, Cells: []Cell{
			num(float64(s.MaxSplits)),
			num(1000 * float64(s.Merges) / float64(s.IssueSlots)),
			num(float64(s.DegradedInserts)),
			num(float64(s.CCTOverflows)),
		}})
	}
	return t, nil
}
