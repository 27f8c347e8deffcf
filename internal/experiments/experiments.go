// Package experiments regenerates every table and figure of the
// paper's evaluation (§5): the per-benchmark IPC comparisons of
// figure 7, the reconvergence-constraint study of figure 8(a), the
// lane-shuffling study of figure 8(b), the lookup-associativity study
// of figure 9, and tables 2-4. Each experiment returns a Table that
// renders as aligned text or CSV.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/sm"
)

// Runner executes benchmark simulations with memoization (several
// figures share configurations). Simulation and oracle validation are
// delegated to the device engine: each figure hands over its whole
// (benchmark, configuration) request set, Prefetch runs one
// Device.RunSuite per configuration, all of them at once, and table
// assembly then reads from the cache. One run queue shared across every
// device the runner builds bounds the concurrent simulations; each
// RunSuite orders its own batch by cost. Both cache layers — the
// runner's per-cell Stats table and the device-level simulation cache
// shared across all the runner's figures — key on
// sm.Config.Fingerprint, which digests every configuration field, so
// two different configurations can never alias a cell. The runner is
// safe for concurrent use.
type Runner struct {
	mu    sync.Mutex
	cache map[runKey]*sm.Stats //sbwi:guardedby mu

	// sims is the device-level simulation cache shared by every device
	// the runner builds, deduplicating cells across figures and passes.
	// It is created once in NewRunner and immutable afterwards (the
	// SimCache itself does its own locking).
	//sbwi:nolock written only in NewRunner, immutable afterwards
	sims *device.SimCache

	// queue is the run queue shared by every device the runner builds,
	// so concurrent figures and configurations stay bounded by one
	// worker pool; created on first use from Workers.
	queue *device.RunQueue //sbwi:guardedby mu

	// Workers bounds the host goroutines simulating concurrently;
	// 0 means GOMAXPROCS. Read when the first simulation is submitted;
	// later changes have no effect.
	Workers int

	// Progress, when non-nil, receives one line per simulation.
	Progress io.Writer
}

// runKey identifies one (benchmark, configuration) cell. The
// fingerprint covers the whole configuration, making the key sound for
// any future Config field.
type runKey struct {
	bench string
	cfgFP uint64
}

func configKey(bench string, cfg *sm.Config) runKey {
	return runKey{bench: bench, cfgFP: cfg.Fingerprint()}
}

// NewRunner creates an empty runner.
func NewRunner() *Runner {
	return &Runner{
		cache: make(map[runKey]*sm.Stats),
		sims:  device.NewSimCache(),
	}
}

// Request names one simulation a figure needs: a benchmark under a
// configuration.
type Request struct {
	Bench *kernels.Benchmark
	Cfg   sm.Config
}

// runQueue returns the runner's shared admission queue, creating it
// from Workers on first use.
func (r *Runner) runQueue() *device.RunQueue {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.queue == nil {
		r.queue = device.NewRunQueue(r.Workers)
	}
	return r.queue
}

// Prefetch simulates every not-yet-cached request: one device per
// distinct configuration, one Device.RunSuite per device, all running
// concurrently on the runner's shared run queue — so the heavy cells of
// one configuration overlap the light cells of another instead of the
// configurations running batch-by-batch. Each simulation's final memory
// is checked against the benchmark's Go reference by the device; a
// mismatch is an error, never a silent wrong figure. Every device is
// built before any simulation starts, and every batch is awaited even
// after a failure, so nothing is running (and filling the shared cache)
// once Prefetch returns; the first error in configuration-major request
// order is reported, successful cells are cached regardless. Prefetch is
// deterministic: results, and the order of the Progress lines, do not
// depend on the worker count or on completion order.
func (r *Runner) Prefetch(ctx context.Context, reqs []Request) error {
	type group struct {
		cfg     sm.Config
		benches []*kernels.Benchmark
		dev     *device.Device
		results []*device.SuiteResult
		err     error
	}
	var groups []*group
	index := make(map[runKey]*group)
	seen := make(map[runKey]bool)
	r.mu.Lock()
	for i := range reqs {
		q := &reqs[i]
		k := configKey(q.Bench.Name, &q.Cfg)
		if seen[k] {
			continue
		}
		seen[k] = true
		if _, ok := r.cache[k]; ok {
			continue
		}
		ck := k
		ck.bench = ""
		g, ok := index[ck]
		if !ok {
			g = &group{cfg: q.Cfg}
			index[ck] = g
			groups = append(groups, g)
		}
		g.benches = append(g.benches, q.Bench)
	}
	r.mu.Unlock()

	queue := r.runQueue()
	for _, g := range groups {
		var err error
		g.dev, err = device.New(device.WithConfig(g.cfg), device.WithRunQueue(queue), device.WithSimCache(r.sims))
		if err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
	}

	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.results, g.err = g.dev.RunSuite(ctx, g.benches)
		}()
	}
	wg.Wait()

	var firstErr error
	for _, g := range groups {
		for _, res := range g.results {
			if res.Err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("experiments: %w", res.Err)
				}
				continue
			}
			s := res.Result.Stats
			r.mu.Lock()
			r.cache[configKey(res.Bench.Name, &g.cfg)] = &s
			r.mu.Unlock()
			if r.Progress != nil {
				fmt.Fprintf(r.Progress, "  %-22s %-10s IPC %6.2f  (%d cycles)\n",
					res.Bench.Name, g.cfg.Arch, s.IPC(), s.Cycles)
			}
		}
		if g.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("experiments: %w", g.err)
		}
	}
	return firstErr
}

// Stats simulates benchmark b under cfg (memoized) and returns the run
// statistics, prefetching on a cache miss.
func (r *Runner) Stats(b *kernels.Benchmark, cfg sm.Config) (*sm.Stats, error) {
	k := configKey(b.Name, &cfg)
	r.mu.Lock()
	s, ok := r.cache[k]
	r.mu.Unlock()
	if ok {
		return s, nil
	}
	if err := r.Prefetch(context.Background(), []Request{{Bench: b, Cfg: cfg}}); err != nil {
		return nil, err
	}
	r.mu.Lock()
	s = r.cache[k]
	r.mu.Unlock()
	return s, nil
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

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("name")
	for _, c := range t.Cols {
		b.WriteByte(',')
		b.WriteString(c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(r.Name)
		for _, c := range r.Cells {
			b.WriteByte(',')
			switch {
			case c.Empty:
			case c.Str != "":
				b.WriteString(c.Str)
			default:
				fmt.Fprintf(&b, "%g", c.Val)
			}
		}
		b.WriteByte('\n')
	}
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
