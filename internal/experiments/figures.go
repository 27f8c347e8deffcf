package experiments

import (
	"repro/internal/kernels"
	"repro/internal/sched"
	"repro/internal/sm"
)

// fig7 runs the five architectures over a suite and reports IPC per
// benchmark plus the geometric-mean speedup over the baseline, which
// sm.Architectures lists first (TMD excluded, §5.1).
func (r *Runner) fig7(title string, suite []*kernels.Benchmark) (*Table, error) {
	s := study{
		title: title,
		note:  "thread-IPC; Gmean excludes TMD (reflects reconvergence scheme, not SBI/SWI) and the synthetic WriteStorm",
		suite: suite,
		mean:  "Gmean speedup",
		row: func(res []*sm.Result) ([]Cell, []float64) {
			_, speedup := relativeIPC(res)
			return nums(ipcs(res)), speedup
		},
	}
	for _, a := range sm.Architectures() {
		s.cols = append(s.cols, a.String())
		s.points = append(s.points, point{cfg: sm.Configure(a)})
	}
	return r.table(s)
}

// Fig7a reproduces figure 7(a): IPC of the regular applications.
func (r *Runner) Fig7a() (*Table, error) {
	return r.fig7("Figure 7(a): IPC, regular applications", kernels.Regular())
}

// Fig7b reproduces figure 7(b): IPC of the irregular applications.
func (r *Runner) Fig7b() (*Table, error) {
	return r.fig7("Figure 7(b): IPC, irregular applications", kernels.Irregular())
}

// Fig8a reproduces figure 8(a): the effect of the selective
// synchronization constraints (§3.3) on SBI and SBI+SWI — speedup of
// constrained over unconstrained execution, plus the issue-slot
// reduction the constraints buy.
func (r *Runner) Fig8a() (*Table, error) {
	onOff := func(a sm.Arch) []point {
		return vary(a, []bool{true, false}, func(c *sm.Config, on bool) { c.Constraints = on })
	}
	return r.table(study{
		title:  "Figure 8(a): reconvergence constraints (speedup of constrained over unconstrained)",
		note:   "issue reduction = fraction of issue slots saved by constraints",
		cols:   []string{"SBI", "SBI+SWI", "SBI issue reduction", "SBI+SWI issue reduction"},
		suite:  kernels.Irregular(),
		points: append(onOff(sm.ArchSBI), onOff(sm.ArchSBISWI)...),
		mean:   "Gmean",
		row: func(res []*sm.Result) ([]Cell, []float64) {
			v := make([]float64, 4)
			for i := range 2 {
				on, off := &res[2*i].Stats, &res[2*i+1].Stats
				v[i] = on.IPC() / off.IPC()
				v[2+i] = 1 - float64(on.IssueSlots)/float64(off.IssueSlots)
			}
			return nums(v), v[:2]
		},
	})
}

// Fig8b reproduces figure 8(b): speedup of each lane-shuffling policy
// over Identity for SWI on the irregular applications.
func (r *Runner) Fig8b() (*Table, error) {
	policies := []sched.Shuffle{sched.ShuffleIdentity, sched.ShuffleMirrorOdd, sched.ShuffleMirrorHalf, sched.ShuffleXor, sched.ShuffleXorRev}
	s := study{
		title:  "Figure 8(b): SWI lane shuffling (speedup over Identity)",
		suite:  kernels.Irregular(),
		points: vary(sm.ArchSWI, policies, func(c *sm.Config, p sched.Shuffle) { c.Shuffle = p }),
		mean:   "GMean",
		// Identity, the first point, is the reference and no column.
		row: func(res []*sm.Result) ([]Cell, []float64) {
			cells, v := relativeIPC(res)
			return cells[1:], v[1:]
		},
	}
	for _, p := range policies[1:] {
		s.cols = append(s.cols, p.String())
	}
	return r.table(s)
}

// Fig9 reproduces figure 9: the slowdown of set-associative SWI lookup
// relative to the fully-associative configuration, on the irregular
// applications.
func (r *Runner) Fig9() (*Table, error) {
	return r.table(study{
		title:  "Figure 9: SWI lookup associativity (slowdown vs fully-associative)",
		cols:   []string{"Fully associative", "11-way", "3-way", "Direct mapped"},
		suite:  kernels.Irregular(),
		points: vary(sm.ArchSWI, []int{sched.AssocFull, 11, 3, 1}, func(c *sm.Config, ways int) { c.Assoc = ways }),
		mean:   "GMean",
		row:    relativeIPC,
	})
}
