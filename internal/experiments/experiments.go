// Package experiments regenerates every table and figure of the
// paper's evaluation (§5): the per-benchmark IPC comparisons of
// figure 7, the reconvergence-constraint study of figure 8(a), the
// lane-shuffling study of figure 8(b), the lookup-associativity study
// of figure 9, and tables 2-4, plus the ablation and memory-system
// studies that go beyond the paper. Every simulated experiment is a
// study — a benchmark suite, a list of points and a row function — run
// by one engine, (*Runner).sweep; each returns a Table that renders as
// aligned text or CSV.
package experiments

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/noc"
	"repro/internal/sm"
)

// Runner runs the experiments. Simulation, oracle validation and
// memoization all belong to the device engine: every device the runner
// builds shares one run queue, which bounds the concurrent simulations,
// and one device.SimCache, so a cell that several figures need is
// simulated once. The cache key covers the benchmark, the whole
// configuration (sm.Config.Fingerprint), the partitioning, the SM count
// and the memory system, so no two points of any study can alias. The
// runner is safe for concurrent use.
type Runner struct {
	sims *device.SimCache

	// queue is created on the first sweep, from Workers.
	once  sync.Once
	queue *device.RunQueue

	// Workers bounds the host goroutines simulating concurrently, at
	// most device.MaxWorkers; 0 means GOMAXPROCS. Read when the first simulation is submitted;
	// later changes have no effect.
	Workers int

	// Progress, when non-nil, receives one line per simulation; writes
	// are serialised by progressMu, so any io.Writer will do.
	Progress   io.Writer
	progressMu sync.Mutex
}

// NewRunner creates an empty runner.
func NewRunner() *Runner {
	return &Runner{sims: device.NewSimCache()}
}

// point is one configuration of a sweep; a study's table has the
// benchmarks down the side and (functions of) the points across.
type point struct {
	cfg sm.Config

	// sms, when positive, partitions every grid into CTA waves across
	// that many SMs; 0 is one SM running each grid whole.
	sms int
	// noc, when non-nil, puts the modeled shared L2 and this interconnect
	// between the SMs and DRAM instead of the flat-latency model.
	noc *noc.Config

	// replay routes the point through trace replay: the first point of
	// the sweep to reach a benchmark records its per-thread trace, the
	// others re-time it. Right for points that differ only in timing
	// parameters (sm.Config.FunctionalFingerprint gives the split).
	replay bool
}

// sweep simulates every benchmark of suite at every point and returns
// the results as res[point][benchmark]: one device per point, one
// Device.RunSuite per device, all running concurrently on the runner's
// run queue — so the heavy cells of one point overlap the light cells of
// another — and all filling the runner's simulation cache, which serves
// the cells an earlier sweep already ran. Each simulation's final memory
// is checked against the benchmark's Go reference by the device; a
// mismatch is an error, never a silent wrong figure. Every device is
// built before any simulation starts, and every batch is awaited even
// after a failure, so nothing is running (and filling the shared cache)
// once sweep returns; the first error in point-major order is reported.
//
// Progress receives one line per cell this sweep simulated, point-major
// in suite order whatever the worker count and completion order, and
// nothing for a cell the cache served. Replay-routed points log nothing:
// most of their cells are re-timed from a trace, not simulated, and
// bench/ counts one full launch per line.
func (r *Runner) sweep(ctx context.Context, suite []*kernels.Benchmark, points []point) ([][]*sm.Result, error) {
	r.once.Do(func() { r.queue = device.NewRunQueue(r.Workers) })
	devs := make([]*device.Device, len(points))
	for i, p := range points {
		opts := []device.Option{
			device.WithConfig(p.cfg),
			device.WithRunQueue(r.queue),
			device.WithSimCache(r.sims),
			device.WithTraceReplay(p.replay),
		}
		if p.sms > 0 {
			opts = append(opts, device.WithSMs(p.sms), device.WithGridPartition(true))
		}
		if p.noc != nil {
			opts = append(opts, device.WithInterconnect(*p.noc))
		}
		var err error
		if devs[i], err = device.New(opts...); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
	}

	batches := make([][]*device.SuiteResult, len(points))
	errs := make([]error, len(points))
	var wg sync.WaitGroup
	for i, dev := range devs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batches[i], errs[i] = dev.RunSuite(ctx, suite)
		}()
	}
	wg.Wait()

	r.progressMu.Lock()
	defer r.progressMu.Unlock()
	res := make([][]*sm.Result, len(points))
	var firstErr error
	for i, batch := range batches {
		res[i] = make([]*sm.Result, len(batch))
		for j, cell := range batch {
			if cell.Err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("experiments: %w", cell.Err)
				}
				continue
			}
			res[i][j] = cell.Result
			if r.Progress != nil && !cell.Cached && !points[i].replay {
				s := &cell.Result.Stats
				fmt.Fprintf(r.Progress, "  %-22s %-10s IPC %6.2f  (%d cycles)\n",
					cell.Name(), points[i].cfg.Arch, s.IPC(), s.Cycles)
			}
		}
		if errs[i] != nil && firstErr == nil {
			firstErr = fmt.Errorf("experiments: %w", errs[i])
		}
	}
	return res, firstErr
}

// study is one simulated experiment as data: what to run and how a
// benchmark's results become its table row.
type study struct {
	title, note string
	cols        []string
	suite       []*kernels.Benchmark
	points      []point

	// row turns one benchmark's results, one per point in points order,
	// into its cells and the values it contributes to the geometric-mean
	// row, one per leading column.
	row func(res []*sm.Result) (cells []Cell, means []float64)

	// mean names the geometric-mean row; "" leaves it out.
	mean string
}

// table runs the study's sweep and assembles its table: one row per
// benchmark in suite order, then the geometric means over the benchmarks
// excludeFromMeans keeps, with columns that have no mean left empty.
func (r *Runner) table(s study) (*Table, error) {
	res, err := r.sweep(context.Background(), s.suite, s.points)
	if err != nil {
		return nil, err
	}
	t := &Table{Title: s.title, Note: s.note, Cols: s.cols}
	var means [][]float64
	for j, b := range s.suite {
		perPoint := make([]*sm.Result, len(s.points))
		for i := range s.points {
			perPoint[i] = res[i][j]
		}
		cells, vals := s.row(perPoint)
		t.Rows = append(t.Rows, Row{Name: b.Name, Cells: cells})
		if means == nil {
			means = make([][]float64, len(vals))
		}
		if !excludeFromMeans(b.Name) {
			for k, v := range vals {
				means[k] = append(means[k], v)
			}
		}
	}
	if s.mean != "" {
		row := Row{Name: s.mean}
		for _, vals := range means {
			row.Cells = append(row.Cells, num(gmean(vals)))
		}
		for len(row.Cells) < len(s.cols) {
			row.Cells = append(row.Cells, empty())
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// vary returns one plain point per value: architecture a's table-2
// configuration with set applied for that value.
func vary[T any](a sm.Arch, vals []T, set func(*sm.Config, T)) []point {
	points := make([]point, len(vals))
	for i, v := range vals {
		points[i].cfg = sm.Configure(a)
		set(&points[i].cfg, v)
	}
	return points
}

// ipcs returns the thread-IPC of each result.
func ipcs(res []*sm.Result) []float64 {
	out := make([]float64, len(res))
	for i, r := range res {
		out[i] = r.Stats.IPC()
	}
	return out
}

// relativeIPC is the row of the studies that report each point's IPC
// relative to their first point's, in every column and in the means.
func relativeIPC(res []*sm.Result) ([]Cell, []float64) {
	v := ipcs(res)
	base := v[0]
	for i := range v {
		v[i] /= base
	}
	return nums(v), v
}

// Table is a rendered experiment result.
type Table struct {
	Title string
	Note  string
	Cols  []string // first column is the row label
	Rows  []Row
}

// Row is one table line.
type Row struct {
	Name  string
	Cells []Cell
}

// Cell is one value; Str (when set) overrides numeric formatting.
type Cell struct {
	Val   float64
	Str   string
	Empty bool
}

func num(v float64) Cell { return Cell{Val: v} }
func str(s string) Cell  { return Cell{Str: s} }
func empty() Cell        { return Cell{Empty: true} }

func nums(vals []float64) []Cell {
	out := make([]Cell, len(vals))
	for i, v := range vals {
		out[i] = num(v)
	}
	return out
}

func (c Cell) text() string {
	switch {
	case c.Empty:
		return "-"
	case c.Str != "":
		return c.Str
	default:
		return fmt.Sprintf("%.2f", c.Val)
	}
}

// Text renders the table with aligned columns. Column widths adapt to
// the widest cell so long entries (per-SM breakdowns) stay readable.
func (t *Table) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	widths := make([]int, len(t.Cols)+1)
	widths[0] = 22
	for i, c := range t.Cols {
		widths[i+1] = max(10, len(c)+1)
	}
	for _, r := range t.Rows {
		for i, c := range r.Cells {
			if i+1 < len(widths) {
				widths[i+1] = max(widths[i+1], len(c.text())+1)
			}
		}
	}
	fmt.Fprintf(&b, "%-*s", widths[0], "")
	for i, c := range t.Cols {
		fmt.Fprintf(&b, "%*s", widths[i+1], c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", widths[0], r.Name)
		for i, c := range r.Cells {
			fmt.Fprintf(&b, "%*s", widths[i+1], c.text())
		}
		b.WriteByte('\n')
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	return b.String()
}

// CSV renders the table as comma-separated values, quoting the fields
// that need it (table 3's descriptions contain commas).
func (t *Table) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	w.Write(append([]string{"name"}, t.Cols...))
	for _, r := range t.Rows {
		rec := []string{r.Name}
		for _, c := range r.Cells {
			switch {
			case c.Empty:
				rec = append(rec, "")
			case c.Str != "":
				rec = append(rec, c.Str)
			default:
				rec = append(rec, fmt.Sprintf("%g", c.Val))
			}
		}
		w.Write(rec)
	}
	w.Flush() // a strings.Builder never fails a write
	return b.String()
}

// gmean computes the geometric mean.
func gmean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	p := 1.0
	for _, v := range vals {
		p *= v
	}
	return math.Pow(p, 1/float64(len(vals)))
}

// excludeFromMeans reports benchmarks left out of summary means: the
// paper excludes the TMD pair (§5.1: it reflects thread-frontier
// reconvergence rather than SBI/SWI), and the synthetic WriteStorm
// store-saturation anchor postdates the paper's figures, so including
// it would shift the reproduced means away from the numbers being
// reproduced.
func excludeFromMeans(name string) bool {
	return name == "TMD1" || name == "TMD2" || name == "WriteStorm"
}
