package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"time"

	sbwi "repro"
	"repro/internal/cfg"
	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/progen"
	"repro/internal/sm"
)

// workloadDef is one entry of the benchmark: why it exists, and how to
// build it from a seed.
type workloadDef struct {
	name string
	why  string
	// seeded workloads draw their inputs from -seed, so their simulated
	// statistics are only known in advance for a seed that was recorded.
	seeded bool
	build  func(seed uint64, workers int) (*instance, error)
}

// The why strings are also the `why` of BENCHMARK.json; a test keeps
// the two in step.
var workloadDefs = []workloadDef{
	{"suite-regular", "10 regular kernels x 5 architectures, almost no divergence: exec, the sm issue walk and the scoreboard do the work, reconvergence and SBI/SWI lookup almost none", false,
		func(_ uint64, workers int) (*instance, error) { return buildSuite(kernels.Regular(), workers) }},
	{"suite-irregular", "12 irregular kernels x 5 architectures, thousands of divergences: the reconvergence heap, secondary issue and the SWI lookup do the work suite-regular bypasses", false,
		func(_ uint64, workers int) (*instance, error) { return buildSuite(kernels.Irregular(), workers) }},
	{"timing-sweep-fullsim", "3 memory-bound kernels on 4 SMs behind the modeled L2/NoC at 8 seeded bandwidth points, full simulation: L2, NoC, the shared-clock driver and wave merging dominate", true,
		func(seed uint64, workers int) (*instance, error) { return buildSweep(seed, workers, false) }},
	{"timing-sweep-replay", "the same sweep through trace replay (record once, replay seven points): replay read-back replaces exec while the memory walk stays, so it pairs with the full simulation", true,
		func(seed uint64, workers int) (*instance, error) { return buildSweep(seed, workers, true) }},
	{"trace-record", "all 22 kernels recorded once on SBI+SWI with a fresh trace cache: the write side of replay (sinks, race analysis, fallback), which the sweep's read side bypasses", false, buildTraceRecord},
	{"launch-storm", "2000 tiny seeded launches per pass over 2xGOMAXPROCS streams: stream, run queue, guards and runner construction dominate, simulated work is negligible", true, buildLaunchStorm},
	{"experiments-pass", "every experiment on a fresh runner, as sbwi-bench runs them: prefetch fan-out, longest-job-first queue, cache fill and replay-routed sweeps all at once", false, buildExperiments},
}

func findWorkload(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}

// instance is a workload ready to run.
type instance struct {
	// pass runs the workload once. tr is nil except in the traced pass.
	pass func(tr *tracer) (*passOut, error)
	// cells are the (kernel, architecture) pairs the traced ladder
	// re-drives one layer at a time.
	cells []cell
	// benches are the suite kernels behind cells (nil for generated
	// kernels), for the set-up rungs that need sources and oracles.
	benches []*kernels.Benchmark
	// mustEqual, when set, is a digest every pass has to reproduce in
	// addition to the first pass's own.
	mustEqual string
	// extras, when set, adds the per-layer metrics only this workload
	// can measure. warm is the warm-up pass.
	extras func(m metricSet, warm *passOut) error
}

// cell is one kernel on one architecture.
type cell struct {
	kernel string
	arch   sm.Arch
	// launch builds a fresh launch (new memory image) of the plain or
	// the SYNC-instrumented program.
	launch   func(threadFrontier bool) (*exec.Launch, error)
	expected []byte
}

func (c *cell) id() string { return c.kernel + "/" + c.arch.String() }

// passOut is what one pass computed.
type passOut struct {
	results  []*sm.Result // one per completed launch, in launch order
	tables   []string     // rendered experiment tables
	launches int          // simulations completed
	ops      int          // operations attempted and checked: launches, or experiments
	failed   int
	errs     []string

	// instrs overrides the sum over results where the launches are not
	// visible one by one (experiments-pass).
	instrs uint64

	replayed  int       // launches served by trace replay
	fallbacks int       // replay fallbacks the device logged
	pointSecs []float64 // sweeps: wall time of each point
}

func (o *passOut) fail(format string, args ...any) {
	o.failed++
	if len(o.errs) < 5 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

func (o *passOut) addSuite(rs []*device.SuiteResult) {
	for _, r := range rs {
		o.launches++
		o.ops++
		if r.Err != nil {
			o.fail("%s: %v", r.Name(), r.Err)
			continue
		}
		o.results = append(o.results, r.Result)
		if r.Result.Replayed {
			o.replayed++
		}
	}
}

func (o *passOut) threadInstrs() uint64 {
	if o.instrs != 0 {
		return o.instrs
	}
	var n uint64
	for _, r := range o.results {
		n += r.Stats.ThreadInstrs
	}
	return n
}

// merged folds every launch's statistics into one.
func (o *passOut) merged() sm.Stats {
	var s sm.Stats
	for _, r := range o.results {
		s.Merge(&r.Stats)
	}
	return s
}

var ctx = context.Background()

// benchCells crosses suite kernels with architectures, forcing the
// kernels' lazily built programs, inputs and oracle images so that no
// pass pays for them.
func benchCells(set []*kernels.Benchmark, archs []sm.Arch) ([]cell, error) {
	var cells []cell
	for _, b := range set {
		for _, tf := range []bool{false, true} {
			if _, err := b.NewLaunch(tf); err != nil {
				return nil, err
			}
		}
		for _, a := range archs {
			cells = append(cells, cell{kernel: b.Name, arch: a, launch: b.NewLaunch, expected: b.Expected()})
		}
	}
	return cells, nil
}

// ---- suite-regular, suite-irregular ----

// buildSuite runs set through one RunSuite per architecture on a
// single flat-memory SM: the default path, cycle-exact with the paper
// reproduction.
func buildSuite(set []*kernels.Benchmark, workers int) (*instance, error) {
	archs := sbwi.Architectures()
	cells, err := benchCells(set, archs)
	if err != nil {
		return nil, err
	}
	devs := make([]*sbwi.Device, len(archs))
	for i, a := range archs {
		if devs[i], err = sbwi.NewDevice(sbwi.WithArch(a), sbwi.WithWorkers(workers)); err != nil {
			return nil, err
		}
	}
	pass := func(tr *tracer) (*passOut, error) {
		out := &passOut{}
		for _, dev := range devs {
			sp := tr.begin("device.RunSuite", dev.Config().Arch.String())
			rs, err := dev.RunSuite(ctx, set)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			out.addSuite(rs)
		}
		return out, nil
	}
	return &instance{pass: pass, cells: cells, benches: set}, nil
}

// ---- timing-sweep-fullsim, timing-sweep-replay ----

const sweepPoints = 8

// sweepKernels are load-streaming, load-contended and store-only: the
// three ways a kernel can lean on the modeled memory system.
func sweepKernels() ([]*kernels.Benchmark, error) {
	var set []*kernels.Benchmark
	for _, name := range []string{"Transpose", "Histogram", "WriteStorm"} {
		b, ok := kernels.ByName(name)
		if !ok {
			return nil, fmt.Errorf("suite has no kernel %q", name)
		}
		set = append(set, b)
	}
	return set, nil
}

// sweepLadder is the NoC port bandwidth sweep in B/cycle, from a
// starved port to one wider than the default 32.
var sweepLadder = [sweepPoints]float64{3, 4, 6, 8, 12, 16, 24, 32}

// sweepBandwidths moves every point of the ladder up by a seeded 0-3 %.
// Simulated cycles go roughly with 1/bandwidth on the bound kernels, so
// the jitter is kept small: every seed sweeps different points, and the
// work of a pass barely depends on which.
func sweepBandwidths(seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 0x5bd1))
	pts := make([]float64, sweepPoints)
	for i, bw := range sweepLadder {
		pts[i] = bw * (1 + float64(rng.IntN(64))/2048)
	}
	return pts
}

func sweepOptions(bw float64, workers int, extra ...sbwi.Option) []sbwi.Option {
	nc := sbwi.DefaultNoCConfig()
	nc.BytesPerCycle = bw
	return append([]sbwi.Option{
		sbwi.WithArch(sbwi.SBISWI),
		sbwi.WithSMs(4),
		sbwi.WithGridPartition(true),
		sbwi.WithL2(sbwi.DefaultL2Config()),
		sbwi.WithInterconnect(nc),
		sbwi.WithWorkers(workers),
	}, extra...)
}

// sweepPass simulates set at every bandwidth point on a fresh device.
// With replay, one trace cache lives for the pass: the first point
// records, the others replay.
func sweepPass(set []*kernels.Benchmark, pts []float64, workers int, replay bool) func(*tracer) (*passOut, error) {
	return func(tr *tracer) (*passOut, error) {
		out := &passOut{}
		var extra []sbwi.Option
		var log bytes.Buffer
		if replay {
			extra = []sbwi.Option{sbwi.WithTraceReplay(true), sbwi.WithSimCache(sbwi.NewSimCache()), sbwi.WithReplayLog(&log)}
		}
		for _, bw := range pts {
			t0 := time.Now()
			dev, err := sbwi.NewDevice(sweepOptions(bw, workers, extra...)...)
			if err != nil {
				return nil, err
			}
			sp := tr.begin("device.RunSuite", fmt.Sprintf("noc=%gB/cycle", bw))
			rs, err := dev.RunSuite(ctx, set)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			out.addSuite(rs)
			out.pointSecs = append(out.pointSecs, time.Since(t0).Seconds())
		}
		out.fallbacks = strings.Count(log.String(), "\n")
		return out, nil
	}
}

func buildSweep(seed uint64, workers int, replay bool) (*instance, error) {
	set, err := sweepKernels()
	if err != nil {
		return nil, err
	}
	cells, err := benchCells(set, []sm.Arch{sm.ArchBaseline, sm.ArchSBISWI})
	if err != nil {
		return nil, err
	}
	pts := sweepBandwidths(seed)
	inst := &instance{pass: sweepPass(set, pts, workers, replay), cells: cells, benches: set}
	if replay {
		// Replayed statistics must equal a full simulation's point for
		// point; one full pass here is the reference.
		ref, err := sweepPass(set, pts, workers, false)(nil)
		if err != nil {
			return nil, err
		}
		if ref.failed > 0 {
			return nil, fmt.Errorf("full-simulation reference sweep failed: %s", strings.Join(ref.errs, "; "))
		}
		inst.mustEqual = ref.digest()
	}
	return inst, nil
}

// ---- trace-record ----

func buildTraceRecord(_ uint64, workers int) (*instance, error) {
	set := kernels.All()
	cells, err := benchCells(set, []sm.Arch{sm.ArchBaseline, sm.ArchSBISWI})
	if err != nil {
		return nil, err
	}
	pass := func(tr *tracer) (*passOut, error) {
		var log bytes.Buffer
		dev, err := sbwi.NewDevice(sbwi.WithArch(sbwi.SBISWI), sbwi.WithWorkers(workers),
			sbwi.WithTraceReplay(true), sbwi.WithSimCache(sbwi.NewSimCache()), sbwi.WithReplayLog(&log))
		if err != nil {
			return nil, err
		}
		out := &passOut{}
		sp := tr.begin("device.RunSuite", "record")
		rs, err := dev.RunSuite(ctx, set)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		out.addSuite(rs)
		out.fallbacks = strings.Count(log.String(), "\n")
		return out, nil
	}
	return &instance{pass: pass, cells: cells, benches: set}, nil
}

// ---- launch-storm ----

const (
	stormKernels  = 256
	stormLaunches = 2000
	stormDepth    = 256
)

// stormKernel is one generated kernel with its launch shape and the
// image the functional reference leaves behind.
type stormKernel struct {
	name        string
	plain, tf   *isa.Program
	grid, block int
	expected    []byte
}

func (k *stormKernel) launch(threadFrontier bool) (*exec.Launch, error) {
	p := k.plain
	if threadFrontier {
		p = k.tf
	}
	return &exec.Launch{Prog: p, GridDim: k.grid, BlockDim: k.block, Global: make([]byte, 4*k.grid*k.block)}, nil
}

// genStormKernels draws n structured random kernels (package progen).
// A generated kernel writes only its own thread's output word, so its
// final image is defined by the functional reference alone. The seed
// picks the programs and which of them gets which launch shape and
// size; the shapes themselves (1-4 CTAs x 32-128 threads) and region
// counts (3-6) are dealt out evenly, so that the work of a pass depends
// on the seed as little as random programs allow.
func genStormKernels(seed uint64, n int) ([]*stormKernel, error) {
	rng := rand.New(rand.NewPCG(seed, 0x570a))
	deal := rng.Perm(n)
	ks := make([]*stormKernel, n)
	for i := range ks {
		d := deal[i]
		k := &stormKernel{name: fmt.Sprintf("storm%03d", i), grid: 1 + d%4, block: 32 * (1 + d/4%4)}
		var err error
		if k.plain, err = progen.New(rng.Uint64()|1).Program(k.name, 3+d/16%4); err != nil {
			return nil, err
		}
		if k.tf, err = cfg.InsertSyncs(k.plain); err != nil {
			return nil, err
		}
		ref, _ := k.launch(false)
		if _, err := exec.RunReference(ref, 32); err != nil {
			return nil, fmt.Errorf("%s: reference: %w", k.name, err)
		}
		k.expected = ref.Global
		ks[i] = k
	}
	return ks, nil
}

func buildLaunchStorm(seed uint64, workers int) (*instance, error) {
	ks, err := genStormKernels(seed, stormKernels)
	if err != nil {
		return nil, err
	}
	dev, err := sbwi.NewDevice(sbwi.WithArch(sbwi.SBISWI), sbwi.WithWorkers(workers), sbwi.WithStreamQueueDepth(stormDepth))
	if err != nil {
		return nil, err
	}
	var cells []cell
	for _, k := range ks {
		for _, a := range []sm.Arch{sm.ArchBaseline, sm.ArchSBISWI} {
			cells = append(cells, cell{kernel: k.name, arch: a, launch: k.launch, expected: k.expected})
		}
	}
	pass := func(tr *tracer) (*passOut, error) {
		out := &passOut{launches: stormLaunches, ops: stormLaunches, results: make([]*sm.Result, 0, stormLaunches)}
		streams := make([]*sbwi.Stream, 2*workers)
		for i := range streams {
			streams[i] = dev.NewStream()
		}
		launches := make([]*exec.Launch, stormLaunches)
		pending := make([]*sbwi.Pending, stormLaunches)
		for i := range pending {
			launches[i], _ = ks[i%len(ks)].launch(true)
			sp := tr.begin("device.Stream.Launch", ks[i%len(ks)].name)
			pending[i] = streams[i%len(streams)].Launch(ctx, launches[i])
			tr.end(sp)
		}
		sp := tr.begin("device.Synchronize", "")
		err := dev.Synchronize(ctx)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		for i, p := range pending {
			res, err := p.Wait()
			switch {
			case err != nil:
				out.fail("%s: %v", ks[i%len(ks)].name, err)
			case !bytes.Equal(launches[i].Global, ks[i%len(ks)].expected):
				out.fail("%s: final image differs from the functional reference", ks[i%len(ks)].name)
			default:
				out.results = append(out.results, res)
			}
		}
		return out, nil
	}
	return &instance{pass: pass, cells: cells}, nil
}

// ---- experiments-pass ----

// progressLog is the experiments runner's Progress sink. The runner
// logs one line per simulation it prefetches ("name arch IPC x (n
// cycles)"), which is the only place its individual launches show.
type progressLog struct{ bytes.Buffer }

// tally returns the number of logged simulations and their simulated
// thread-instructions, recovered as IPC x cycles (exact to the two
// decimals the runner prints).
func (p *progressLog) tally() (sims int, instrs uint64, err error) {
	for _, line := range strings.Split(strings.TrimSpace(p.String()), "\n") {
		var name, arch string
		var ipc float64
		var cycles int64
		if _, err := fmt.Sscanf(strings.TrimSpace(line), "%s %s IPC %f (%d cycles)", &name, &arch, &ipc, &cycles); err != nil {
			return 0, 0, fmt.Errorf("experiments progress line %q: %w", line, err)
		}
		sims++
		instrs += uint64(ipc*float64(cycles) + 0.5)
	}
	return sims, instrs, nil
}

// runExperiments renders every experiment on r, in the order
// sbwi-bench runs them.
func runExperiments(r *experiments.Runner, tr *tracer) (*passOut, error) {
	out := &passOut{}
	for _, name := range experiments.Experiments {
		out.ops++
		sp := tr.begin("experiments.Run", name)
		t, err := r.Run(name)
		tr.end(sp)
		if err != nil {
			out.fail("%s: %v", name, err)
			continue
		}
		out.tables = append(out.tables, t.Text())
	}
	return out, nil
}

func buildExperiments(_ uint64, workers int) (*instance, error) {
	set := kernels.All()
	cells, err := benchCells(set, []sm.Arch{sm.ArchBaseline, sm.ArchSBISWI})
	if err != nil {
		return nil, err
	}
	// last is the runner of the latest pass, left populated for the
	// warm re-runs below.
	var last *experiments.Runner
	pass := func(tr *tracer) (*passOut, error) {
		var log progressLog
		r := experiments.NewRunner()
		r.Workers = workers
		r.Progress = &log
		last = r
		out, err := runExperiments(r, tr)
		if err != nil {
			return nil, err
		}
		// The tables are what the pass is checked on; the launches and
		// instructions behind them are what the runner logged.
		sims, instrs, err := log.tally()
		if err != nil {
			return nil, err
		}
		out.launches, out.instrs = sims, instrs
		return out, nil
	}
	// On a populated runner every experiment is a cache lookup plus
	// table assembly: what a second `sbwi-bench` figure costs.
	extras := func(m metricSet, warm *passOut) error {
		m["experiments.cells"] = float64(warm.launches)
		last.Progress = nil
		var passes, renders []float64
		for i := 0; i < 20; i++ {
			var tables []*experiments.Table
			t0 := time.Now()
			for _, name := range experiments.Experiments {
				t, err := last.Run(name)
				if err != nil {
					return err
				}
				tables = append(tables, t)
			}
			t1 := time.Now()
			for _, t := range tables {
				sink ^= uint64(len(t.Text()))
			}
			passes = append(passes, 1e3*time.Since(t0).Seconds())
			renders = append(renders, 1e3*time.Since(t1).Seconds())
		}
		m["experiments.warm_pass_ms"] = percentile(passes, 0.5)
		m["experiments.render_ms"] = percentile(renders, 0.5)

		// Accuracy against the paper, from the tables users read: the
		// last row of figures 7(a) and 7(b) holds the gmean speed-ups
		// of SBI, SWI and SBI+SWI.
		var errs []float64
		for class, run := range []func() (*experiments.Table, error){last.Fig7a, last.Fig7b} {
			t, err := run()
			if err != nil {
				return err
			}
			gmeans := t.Rows[len(t.Rows)-1].Cells
			for i, p := range paperFig7[class].paper {
				errs = append(errs, math.Abs(100*(gmeans[1+i].Val-1)-p.pct))
			}
		}
		m["sim.fig7_speedup_err_pp"] = mean(errs)
		return nil
	}
	return &instance{pass: pass, cells: cells, benches: set, extras: extras}, nil
}
