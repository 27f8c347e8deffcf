package experiments

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/sched"
	"repro/internal/sm"
)

// Ablation studies for the simulator's design choices. These go beyond
// the paper's published figures: they quantify the cost of each
// approximation the paper's hardware makes.

// AblationScoreboard compares the three dependency-tracking rules on
// the SBI architecture over the irregular suite: the paper's
// dependency-matrix design (§3.4, SBI's table-2 default and therefore
// the first point), the exact per-entry execution-mask oracle the paper
// rejects for storage cost, and the conservative per-warp rule of the
// baseline. IPC of each, normalized to the matrix design.
func (r *Runner) AblationScoreboard() (*Table, error) {
	return r.table(study{
		title:  "Ablation: SBI scoreboard dependency rule (IPC relative to the dependency-matrix design)",
		note:   "exact mask >= matrix >= per-warp expected: each is strictly less conservative",
		cols:   []string{"matrix (paper)", "exact mask", "per-warp"},
		suite:  kernels.Irregular(),
		points: vary(sm.ArchSBI, []sched.DepMode{sched.DepMatrix, sched.DepMask, sched.DepWarp}, func(c *sm.Config, m sched.DepMode) { c.DepMode = m }),
		mean:   "Gmean",
		row:    relativeIPC,
	})
}

// AblationMemSplit evaluates the DWS-style memory-divergence warp
// splitting extension (related work the paper discusses): SBI+SWI with
// the knob on versus off over the irregular suite.
func (r *Runner) AblationMemSplit() (*Table, error) {
	return r.table(study{
		title:  "Ablation: memory-divergence warp splitting (SBI+SWI, speedup of split over no-split)",
		note:   "hit threads run ahead while miss threads replay the load (DWS-style)",
		cols:   []string{"speedup", "splits/1k-issues"},
		suite:  kernels.Irregular(),
		points: vary(sm.ArchSBISWI, []bool{false, true}, func(c *sm.Config, on bool) { c.SplitOnMemDivergence = on }),
		mean:   "Gmean",
		row: func(res []*sm.Result) ([]Cell, []float64) {
			off, on := &res[0].Stats, &res[1].Stats
			v := on.IPC() / off.IPC()
			return nums([]float64{v, 1000 * float64(on.MemSplits) / float64(on.IssueSlots)}), []float64{v}
		},
	})
}

// AblationExecLatency sweeps the register-to-register execution latency
// (8 cycles is the paper's table-2 value) over the irregular suite on
// SBI+SWI. The sweep is the canonical trace-replay customer:
// ExecLatency changes only when results write back, never what threads
// compute, so whichever latency point reaches a benchmark first records
// its per-thread trace and every other point replays it through the
// full timing machinery — bit-identical statistics, whichever point
// recorded, without re-executing a single instruction. Benchmarks
// outside the replay validity domain (of the suite's kernels, only BFS
// is racy) fall back to full simulation with the reason logged once.
func (r *Runner) AblationExecLatency() (*Table, error) {
	s := study{
		title: "Ablation: execution latency vs IPC (SBI+SWI), re-timed by trace replay",
		note:  "8 cyc is the paper's table-2 latency; points after the first replay its recorded traces (racy kernels fall back to full simulation)",
		suite: kernels.Irregular(),
		mean:  "Gmean",
		row: func(res []*sm.Result) ([]Cell, []float64) {
			v := ipcs(res)
			return nums(v), v
		},
	}
	for _, lat := range []int64{2, 4, 8, 16, 32} {
		s.cols = append(s.cols, fmt.Sprintf("%d cyc", lat))
		cfg := sm.Configure(sm.ArchSBISWI)
		cfg.ExecLatency = lat
		s.points = append(s.points, point{cfg: cfg, replay: true})
	}
	return r.table(s)
}

// HeapPressure reports the thread-frontier heap statistics per
// irregular kernel under SBI: peak live warp-splits, merges per 1000
// issues, and the insertions a bounded-throughput sideband sorter
// would have had to defer (this quantifies the perfect-sort
// substitution reconv.Heap makes).
func (r *Runner) HeapPressure() (*Table, error) {
	return r.table(study{
		title:  "Heap pressure under SBI (per irregular kernel)",
		note:   "prior work: heap size rarely exceeds 3 (paper 3.4)",
		cols:   []string{"max splits", "merges/1k-issues", "deferred inserts", "CCT overflows"},
		suite:  kernels.Irregular(),
		points: []point{{cfg: sm.Configure(sm.ArchSBI)}},
		row: func(res []*sm.Result) ([]Cell, []float64) {
			s := &res[0].Stats
			return nums([]float64{
				float64(s.MaxSplits),
				1000 * float64(s.Merges) / float64(s.IssueSlots),
				float64(s.DegradedInserts),
				float64(s.CCTOverflows),
			}), nil
		},
	})
}
