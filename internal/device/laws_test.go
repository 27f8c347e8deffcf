package device

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/progen"
	"repro/internal/replay"
	"repro/internal/sched"
	"repro/internal/sm"
)

// The law table. SBI and SWI change when a warp issues, never what it
// computes, and the device's determinism contract (the package comment)
// names the results that must agree bit for bit whatever the shape,
// SM count, worker count, stream count or shell history. This file
// holds that contract in one place: every path a launch can take is a
// row, run over the same inputs — the 22 suite kernels and generated
// ones (lawInputs) — and every law is a column checked on each row it
// applies to.
//
//	row        path                                              architectures
//	reference  exec.RunReference                                 -
//	flat       a never-used device, recording each input's trace all five
//	recycled   one run-queue slot and spare run every input      all five
//	partition  WithGridPartition on 1, 2 and 8 SMs               SBI+SWI
//	auto       RunSuite under WithAutoPartition                  SBI+SWI
//	memsys     WithL2+WithInterconnect on 4 SMs, recorded too    SBI+SWI
//	memsys-    one slot and spare alternate the memsys row's     SBI+SWI
//	recycled   device and one of other SMs, L2 and crossbar
//	fresh-     a new device per input alternates the memsys      SBI+SWI
//	devices    row's and the small one, sharing only the
//	           process-wide spare store
//	suite-     one slot and spare alternate RunSuite on three    Baseline, SBI+SWI,
//	recycled   devices of two warp widths and counts             Warp64
//	streams    1, 2 and 8 streams on 1 and 4 workers             SBI+SWI
//	replay     the flat and memsys recordings replayed at a      all five, and memsys
//	           timing mutation or at the recording's own
//	           timing, against full simulation of it; a
//	           thread-frontier recording also on the other
//	           thread-frontier architectures
//
//	law           holds that
//	oracle        every final image is the input's oracle (b.Expected)
//	stats         Stats agree wherever the contract says they must
//	fold          a partitioned launch's Stats are the fold of its
//	              waves' (TestPartitionedRunMatchesFunctionally)
//	conservation  every memsys transaction is counted once per level
//	              (TestMemsysConservation)
//	replay        a replay equals full simulation of its configuration
//	              (TestTraceReplaySuiteSweepEquivalence, and
//	              TestTraceReplayMemsysEquivalence on the memsys row)
//	verdict       the race verdict is the same on every row that
//	              records, and replays exactly when it says replayable
//
// A law that kept the name of the test it replaced is a top-level test
// over the shared rows; the others are TestLaws' subtests.
//
// A row that several tests read is computed once per test binary and
// shared: TestWalkStatsGolden pins the flat row's Stats,
// TestReplayVerdictsGolden the replay rows' verdicts, so no test
// simulates the suite again for its own purposes.
// The rows fill both cores from within: each computes its inputs on
// GOMAXPROCS goroutines, and TestLaws' rows are parallel subtests. No
// top-level test here is parallel, so none is paused while the
// package's goroutine-leak checks take their snapshots.

// lawCell is one input's outcome on one row. image is the final global
// image; nil where the path is RunSuite, which validates every image
// against the oracle itself and fails the entry otherwise.
type lawCell struct {
	res   *sm.Result
	image []byte
	err   error
}

// lawInputs is the table's input set: the suite, then generated
// kernels whose oracle is the functional reference — progen.Kernels'
// 64, and one of 192-thread blocks, which no other input has: six warps
// of 32, three of 64.
var lawInputs = sync.OnceValue(func() []*kernels.Benchmark {
	return append(kernels.All(), append(progen.Kernels(64), progen.Kernel(65, 6, 2, 192))...)
})

// forEach runs f(0) … f(n-1) on GOMAXPROCS goroutines.
func forEach(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// mustNew builds a device from options the table knows to be valid.
func mustNew(opts ...Option) *Device {
	d, err := New(opts...)
	if err != nil {
		panic(err)
	}
	return d
}

// launchAll launches every input on d, input i on stream i mod streams,
// and waits for them all.
func launchAll(d *Device, in []*kernels.Benchmark, streams int) []lawCell {
	ss := make([]*Stream, streams)
	for i := range ss {
		ss[i] = d.NewStream()
	}
	cells := make([]lawCell, len(in))
	ps := make([]*Pending, len(in))
	for i, b := range in {
		l, err := b.NewLaunch(d.cfg.Arch != sm.ArchBaseline)
		if err != nil {
			cells[i].err = err
			continue
		}
		cells[i].image = l.Global
		ps[i] = ss[i%streams].Launch(context.Background(), l)
	}
	for i, p := range ps {
		if p != nil {
			cells[i].res, cells[i].err = p.Wait()
		}
	}
	return cells
}

// runSuite runs the inputs through RunSuite on d.
func runSuite(d *Device, in []*kernels.Benchmark) []lawCell {
	results, err := d.RunSuite(context.Background(), in)
	cells := make([]lawCell, len(in))
	for i, r := range results {
		cells[i] = lawCell{res: r.Result, err: errors.Join(err, r.Err)}
	}
	return cells
}

// recording is a row whose every run records: each input through
// RunSuite on a device of its own that has never run anything, over a
// spare store of its own, so no shell is reused. The devices share one
// SimCache under WithTraceReplay, on which the first configuration to
// run a benchmark records its trace, so the row is also a replay row's
// record step. That a recording run is a full simulation is the stats
// law between this row and the plain ones.
type recording struct {
	cells  []lawCell
	cache  *SimCache
	funcFP uint64   // the trace key's configuration half
	logs   []string // each input's fallback diagnostics
}

// record runs a recording row on devices built from opts.
func record(opts ...Option) recording {
	in := lawInputs()
	r := recording{cells: make([]lawCell, len(in)), cache: NewSimCache(), funcFP: mustNew(opts...).funcFP, logs: make([]string, len(in))}
	forEach(len(in), func(i int) {
		var log bytes.Buffer
		d := mustNew(slices.Concat(opts, []Option{privateQueue(1), WithSimCache(r.cache), WithTraceReplay(true), WithReplayLog(&log)})...)
		r.cells[i] = runSuite(d, in[i:i+1])[0]
		r.logs[i] = log.String()
	})
	return r
}

// flatRows is the flat row of every architecture, recorded.
var flatRows = sync.OnceValue(func() map[sm.Arch]recording {
	archs := sm.Architectures()
	rows := make([]recording, len(archs))
	forEach(len(archs), func(k int) { rows[k] = record(WithArch(archs[k]), WithWorkers(1)) })
	m := make(map[sm.Arch]recording, len(archs))
	for k, a := range archs {
		m[a] = rows[k]
	}
	return m
})

// partitionShape is one device of the partition row.
type partitionShape struct{ sms, workers int }

func (c partitionShape) row() string { return fmt.Sprintf("partition/%dsm-%dw", c.sms, c.workers) }

// partitionShapes are the partition row's devices.
var partitionShapes = []partitionShape{{1, 1}, {2, 4}, {8, 4}}

// partitionRow is the partition row, one set of cells per shape.
var partitionRow = sync.OnceValue(func() [][]lawCell {
	in := lawInputs()
	rows := make([][]lawCell, len(partitionShapes))
	for k, c := range partitionShapes {
		rows[k] = launchAll(mustNew(WithArch(sm.ArchSBISWI), WithSMs(c.sms), WithWorkers(c.workers), WithGridPartition(true)), in, len(in))
	}
	return rows
})

// memsysOpts is the memsys row's device: 4 SMs behind the modeled L2
// and crossbar.
func memsysOpts(partition bool, extra ...Option) []Option {
	return append([]Option{WithArch(sm.ArchSBISWI), WithSMs(4), WithGridPartition(partition),
		WithL2(mem.DefaultL2()), WithInterconnect(noc.Default())}, extra...)
}

// memsysCells is the memsys row: the partitioned shape recorded on
// 1-worker devices and run on one 4-worker device, and the whole-grid
// shape, which runs on one SM slot.
type memsysCells struct {
	rec   recording
	part  []lawCell
	whole []lawCell
}

var memsysRow = sync.OnceValue(func() (r memsysCells) {
	in := lawInputs()
	r.rec = record(memsysOpts(true, WithWorkers(1))...)
	r.part = launchAll(mustNew(memsysOpts(true, WithWorkers(4))...), in, len(in))
	r.whole = launchAll(mustNew(memsysOpts(false)...), in, len(in))
	return r
})

// smallMemsysOpts is a second memsys device: 2 SMs, a 256 KB 4-way L2
// and half the port bandwidth.
func smallMemsysOpts(extra ...Option) []Option {
	l2 := mem.DefaultL2()
	l2.Bytes, l2.Ways = 256*1024, 4
	xbar := noc.Default()
	xbar.BytesPerCycle /= 2
	return append([]Option{WithArch(sm.ArchSBISWI), WithSMs(2), WithGridPartition(true), WithL2(l2), WithInterconnect(xbar)}, extra...)
}

// smallMemsysRow is every input on a never-used small memsys device.
var smallMemsysRow = sync.OnceValue(func() []lawCell {
	in := lawInputs()
	cells := make([]lawCell, len(in))
	forEach(len(in), func(i int) {
		cells[i] = launchAll(mustNew(smallMemsysOpts(privateQueue(1))...), in[i:i+1], 1)[0]
	})
	return cells
})

// checkMemsys is the stats law between two memsys rows: everything a
// memsys result reports — Stats, waves, SM cycles, crossbar ports,
// device cycles — is bit-identical, input by input.
func checkMemsys(t *testing.T, row string, got []lawCell, base string, want []lawCell) {
	t.Helper()
	snapshot := func(r *sm.Result) any { return []any{r.Stats, r.Waves, r.SMCycles, r.NoCPorts, r.DeviceCycles()} }
	for i := range got {
		if got[i].err == nil && want[i].err == nil && !reflect.DeepEqual(snapshot(got[i].res), snapshot(want[i].res)) {
			t.Errorf("stats: %s on %s differs from %s", lawInputs()[i].Name, row, base)
		}
	}
}

// replayRow is one trace-replay sweep over a recording: each input at
// one timing mutation twice — through its trace and fully simulated.
type replayRow struct {
	name     string
	rec      recording
	replayed []lawCell
	full     []lawCell
	arch     []sm.Arch // the architecture each input was replayed on
	verdict  []bool    // the recorded trace's race verdict
	log      string    // the sweep's fallback diagnostics
}

// timingMutations re-time a launch recorded on architecture a without
// changing what its threads compute: each stays inside the trace-replay
// validity domain. The first keeps the recording's own timing: a trace
// bound changes the configuration's cache key but no Stats, so the
// point replays instead of finding the recording's result. The four
// thread-frontier architectures run one program, so they share a
// recording: on one of them, mutation m starts from the configuration
// of the thread-frontier architecture m places after a — a itself every
// fourth, the first included.
func timingMutations(a sm.Arch) []Option {
	muts := []func(*sm.Config){
		func(c *sm.Config) { c.TraceCap = 64 },
		func(c *sm.Config) { c.ExecLatency = 2 },
		func(c *sm.Config) { c.ExecLatency = 32 },
		func(c *sm.Config) { c.SharedLatency = 9 },
		func(c *sm.Config) { c.IssueDelay += 2 },
		func(c *sm.Config) { c.ScoreboardEntries = 2 },
		func(c *sm.Config) { c.SFUWidth, c.LSUWidth = 2, 8 },
		func(c *sm.Config) { c.Mem.MemLatency, c.Mem.BytesPerCycle = 700, 2 },
		func(c *sm.Config) { c.Mem.MemLatency, c.Mem.HitLatency = 41, 9 },
		func(c *sm.Config) { c.Mem.L1Bytes, c.Mem.L1Ways = 4096, 2 },
		func(c *sm.Config) { c.Seed, c.Shuffle = 0xDEADBEEF, sched.ShuffleMirrorHalf },
		func(c *sm.Config) { c.Seed, c.Shuffle = 0x1234, sched.ShuffleXorRev },
	}
	if a != sm.ArchBaseline {
		muts = append(muts, func(c *sm.Config) { c.SplitOnMemDivergence = true })
	}
	tf := sm.Architectures()[1:]
	opts := make([]Option, len(muts))
	for m, f := range muts {
		on := a
		if a != sm.ArchBaseline {
			on = tf[(slices.Index(tf, a)+m)%len(tf)]
		}
		opts[m] = tweaked(on, f)
	}
	return opts
}

// sweepReplay runs one replay row over rec, recorded at base. Input i
// meets mutation (i+rot) mod len(muts), so a kernel meets different
// mutations on different rows.
func sweepReplay(name string, base []Option, rec recording, muts []Option, rot int) replayRow {
	in := lawInputs()
	var log bytes.Buffer
	r := replayRow{name: name, rec: rec, replayed: make([]lawCell, len(in)), full: make([]lawCell, len(in)), arch: make([]sm.Arch, len(in)), verdict: make([]bool, len(in))}
	for m, mut := range muts {
		var idx []int
		var sub []*kernels.Benchmark
		for i, b := range in {
			if (i+rot)%len(muts) == m {
				idx, sub = append(idx, i), append(sub, b)
			}
		}
		d := mustNew(slices.Concat(base, []Option{mut, WithSimCache(rec.cache), WithTraceReplay(true), WithReplayLog(&log)})...)
		replayed := runSuite(d, sub)
		full := runSuite(mustNew(slices.Concat(base, []Option{mut})...), sub)
		for j, i := range idx {
			r.replayed[i], r.full[i], r.arch[i] = replayed[j], full[j], d.cfg.Arch
		}
	}
	notRecorded := func() (*replay.Trace, error) { return nil, errors.New("not recorded") }
	for i, b := range in {
		tr, err := rec.cache.traces.do(context.Background(), traceKey{b.Name, rec.funcFP}, notRecorded)
		r.verdict[i] = err == nil && tr.Replayable
	}
	r.log = log.String()
	return r
}

// replayRows are the replay rows: one per architecture over its flat
// row, and one over the memsys row's partitioned shape re-timed by the
// crossbar's port bandwidth.
var replayRows = sync.OnceValue(func() []replayRow {
	archs := sm.Architectures()
	var bws []Option
	for _, bw := range []float64{8, 64} {
		nc := noc.Default()
		nc.BytesPerCycle = bw
		bws = append(bws, WithInterconnect(nc))
	}
	rows := make([]replayRow, len(archs)+1)
	var wg sync.WaitGroup
	for k := range rows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if k == len(archs) {
				rows[k] = sweepReplay("SBI+SWI/memsys", memsysOpts(true), memsysRow().rec, bws, 0)
			} else {
				a := archs[k]
				rows[k] = sweepReplay(a.String(), []Option{WithArch(a)}, flatRows()[a], timingMutations(a), k)
			}
		}()
	}
	wg.Wait()
	return rows
})

// checkOracle is the oracle law over one row's cells.
func checkOracle(t *testing.T, row string, cells []lawCell) {
	t.Helper()
	in := lawInputs()
	for i, c := range cells {
		switch {
		case c.err != nil:
			t.Errorf("oracle: %s on %s: %v", in[i].Name, row, c.err)
		case c.image != nil && !bytes.Equal(c.image, in[i].Expected()):
			t.Errorf("oracle: %s on %s: the final image is not the oracle's", in[i].Name, row)
		}
	}
}

// checkStats is the stats law between two rows: input by input, Stats
// are bit-identical. Only the inputs pick selects are compared (all
// when pick is nil); cells that failed are the oracle law's to report.
func checkStats(t *testing.T, row string, got []lawCell, base string, want []lawCell, pick func(i int) bool) {
	t.Helper()
	in := lawInputs()
	for i := range got {
		if got[i].err != nil || want[i].err != nil || (pick != nil && !pick(i)) {
			continue
		}
		if g, w := &got[i].res.Stats, &want[i].res.Stats; *g != *w {
			t.Errorf("stats: %s on %s differs from %s\n got %+v\nwant %+v", in[i].Name, row, base, g, w)
		}
	}
}

// TestLaws runs every row of the table and checks the laws that are
// its subtests: oracle, stats and verdict. Every row is a parallel
// subtest, so `-run TestLaws/<row>` runs one row and computes only the
// rows it is compared with.
func TestLaws(t *testing.T) {
	in := lawInputs()
	sbiswi := sm.ArchSBISWI
	t.Run("reference", func(t *testing.T) {
		t.Parallel()
		cells := make([]lawCell, len(in))
		forEach(len(in), func(i int) {
			l, err := in[i].NewLaunch(false)
			if err == nil {
				_, err = exec.RunReference(l, 32)
				cells[i] = lawCell{image: l.Global}
			}
			cells[i].err = err
		})
		checkOracle(t, "reference", cells)
	})
	t.Run("flat", func(t *testing.T) {
		t.Parallel()
		for _, a := range sm.Architectures() {
			checkOracle(t, "flat/"+a.String(), flatRows()[a].cells)
		}
	})
	// One slot and spare shared by a device per architecture, each on 8
	// SMs: every launch re-arms the shells the one before it left, of
	// another architecture and kernel. A whole-grid launch uses one SM
	// whatever the device has, so this also holds the SM count invisible
	// to it.
	t.Run("recycled", func(t *testing.T) {
		t.Parallel()
		q := newRunQueue(1, new(spareStore))
		archs := sm.Architectures()
		devs := make([]*Device, len(archs))
		cells := make([][]lawCell, len(archs))
		for k, a := range archs {
			devs[k], cells[k] = mustNew(WithArch(a), WithSMs(8), WithRunQueue(q)), make([]lawCell, len(in))
		}
		for i := range in {
			for k := range archs {
				cells[k][i] = launchAll(devs[k], in[i:i+1], 1)[0]
			}
		}
		for k, a := range archs {
			row := "recycled/" + a.String()
			checkOracle(t, row, cells[k])
			checkStats(t, row, cells[k], "flat", flatRows()[a].cells, nil)
		}
	})
	// Under the flat memory model a partitioned launch's waves are
	// independent, so its Stats do not depend on the SM or worker count,
	// and a grid of one wave is the whole-grid run. That the merged
	// Stats are the fold of the waves' is
	// TestPartitionedRunMatchesFunctionally's.
	t.Run("partition", func(t *testing.T) {
		t.Parallel()
		rows := partitionRow()
		for k, shape := range partitionShapes {
			row, cells := shape.row(), rows[k]
			checkOracle(t, row, cells)
			if k == 0 {
				checkStats(t, row, cells, "flat", flatRows()[sbiswi].cells, func(i int) bool { return cells[i].res.Waves == nil })
			} else {
				checkStats(t, row, cells, partitionShapes[0].row(), rows[0], nil)
			}
		}
	})
	// An entry the plan routes to the partitioned shape carries its
	// Stats, every other the whole-grid run's — here on 4 workers, the
	// rows it is compared with on one.
	t.Run("auto", func(t *testing.T) {
		t.Parallel()
		d := mustNew(WithArch(sbiswi), WithWorkers(4), WithAutoPartition(true))
		plan := d.partitionPlan(in)
		cells := runSuite(d, in)
		checkOracle(t, "auto", cells)
		checkStats(t, "auto", cells, "flat", flatRows()[sbiswi].cells, func(i int) bool { return !plan[i] })
		checkStats(t, "auto", cells, partitionShapes[0].row(), partitionRow()[0], func(i int) bool { return plan[i] })
	})
	// With the hierarchy modeled the SM count is an architectural
	// parameter, so memsys results are compared only across worker
	// counts and runs — every counter, wave, port and clock.
	t.Run("memsys", func(t *testing.T) {
		t.Parallel()
		r := memsysRow()
		checkOracle(t, "memsys/whole-grid", r.whole)
		checkOracle(t, "memsys/1w", r.rec.cells)
		checkOracle(t, "memsys/4w", r.part)
		checkMemsys(t, "memsys/4w", r.part, "memsys/1w", r.rec.cells)
	})
	// One slot and spare shared by the memsys row's device and the small
	// one (smallMemsysOpts), the inputs alternating between them: every
	// launch re-arms an L2 and a crossbar of the other geometry. Each
	// device's cells equal its never-recycled ones.
	t.Run("memsys-recycled", func(t *testing.T) {
		t.Parallel()
		q := newRunQueue(1, new(spareStore))
		devs := []*Device{mustNew(memsysOpts(true, WithRunQueue(q))...), mustNew(smallMemsysOpts(WithRunQueue(q))...)}
		cells := [][]lawCell{make([]lawCell, len(in)), make([]lawCell, len(in))}
		for i := range in {
			for k, d := range devs {
				cells[k][i] = launchAll(d, in[i:i+1], 1)[0]
			}
		}
		checkOracle(t, "memsys-recycled/4sm", cells[0])
		checkOracle(t, "memsys-recycled/2sm", cells[1])
		checkMemsys(t, "memsys-recycled/4sm", cells[0], "memsys/1w", memsysRow().rec.cells)
		checkMemsys(t, "memsys-recycled/2sm", cells[1], "never-used 1-worker devices", smallMemsysRow())
	})
	// A new device per input, the memsys row's and the small one in
	// turn, each with a private queue: they share only the process-wide
	// spare store, as a sweep's points do, so each re-arms the shells,
	// wave buffers, L2 and crossbar whichever device of either geometry
	// gave back last — the other rows' devices too. Each equals a
	// never-used device over a store of its own.
	t.Run("fresh-devices", func(t *testing.T) {
		t.Parallel()
		cells := [][]lawCell{make([]lawCell, len(in)), make([]lawCell, len(in))}
		for i := range in {
			cells[0][i] = launchAll(mustNew(memsysOpts(true, WithWorkers(1))...), in[i:i+1], 1)[0]
			cells[1][i] = launchAll(mustNew(smallMemsysOpts(WithWorkers(1))...), in[i:i+1], 1)[0]
		}
		checkOracle(t, "fresh-devices/4sm", cells[0])
		checkOracle(t, "fresh-devices/2sm", cells[1])
		checkMemsys(t, "fresh-devices/4sm", cells[0], "memsys/1w", memsysRow().rec.cells)
		checkMemsys(t, "fresh-devices/2sm", cells[1], "never-used 1-worker devices", smallMemsysRow())
	})
	// One slot and spare shared by a Baseline device (32 warps of 32), an
	// SBI+SWI and a Warp64 one (16 of 64), the inputs alternating through
	// RunSuite: every launch re-arms shells of another warp width or
	// count, over the image the benchmark's last clean run handed back.
	// Each device's cells equal the flat row's, whose every input ran on
	// a never-used device.
	t.Run("suite-recycled", func(t *testing.T) {
		t.Parallel()
		q := newRunQueue(1, new(spareStore))
		archs := []sm.Arch{sm.ArchBaseline, sbiswi, sm.ArchWarp64}
		devs := make([]*Device, len(archs))
		cells := make([][]lawCell, len(archs))
		for k, a := range archs {
			devs[k], cells[k] = mustNew(WithArch(a), WithRunQueue(q)), make([]lawCell, len(in))
		}
		for i := range in {
			for k, d := range devs {
				cells[k][i] = runSuite(d, in[i:i+1])[0]
			}
		}
		for k, a := range archs {
			row := "suite-recycled/" + a.String()
			checkOracle(t, row, cells[k])
			checkStats(t, row, cells[k], "flat", flatRows()[a].cells, nil)
		}
	})
	t.Run("streams", func(t *testing.T) {
		t.Parallel()
		for _, streams := range []int{1, 2, 8} {
			for _, workers := range []int{1, 4} {
				row := fmt.Sprintf("streams/%ds-%dw", streams, workers)
				cells := launchAll(mustNew(WithArch(sbiswi), WithWorkers(workers)), in, streams)
				checkOracle(t, row, cells)
				checkStats(t, row, cells, "flat", flatRows()[sbiswi].cells, nil)
			}
		}
	})
	// The race verdict is a function of the kernel's accesses, so every
	// recording reaches the same one. That each replay row replays
	// exactly the inputs its verdicts allow, and equals full simulation,
	// is TestTraceReplaySuiteSweepEquivalence's and
	// TestTraceReplayMemsysEquivalence's.
	t.Run("replay", func(t *testing.T) {
		t.Parallel()
		rows := replayRows()
		for i, b := range in {
			for _, r := range rows {
				if r.verdict[i] != rows[0].verdict[i] {
					t.Errorf("verdict: %s is replayable %v on replay/%s but %v on replay/%s", b.Name, r.verdict[i], r.name, rows[0].verdict[i], rows[0].name)
				}
			}
			if i >= len(kernels.All()) && !rows[0].verdict[i] {
				t.Errorf("verdict: generated %s writes only its own word, yet its trace is not replayable", b.Name)
			}
		}
	})
}

// TestPartitionedRunMatchesFunctionally is the partition row's fold
// law: a partitioned launch computes the oracle's image, in exactly
// ⌈Grid / sm.ResidentCTAs⌉ waves (Waves nil when that is one), its
// merged Stats are the fold of its waves', and its per-SM cycles sum to
// them on exactly the device's SMs, the wall clock never above the sum.
func TestPartitionedRunMatchesFunctionally(t *testing.T) {
	in := lawInputs()
	cfg := sm.Configure(sm.ArchSBISWI)
	for k, shape := range partitionShapes {
		row, cells := shape.row(), partitionRow()[k]
		checkOracle(t, row, cells)
		multiWave := 0
		for i, c := range cells {
			if c.err != nil {
				continue
			}
			resident := sm.ResidentCTAs(cfg, &exec.Launch{BlockDim: in[i].Block})
			if waves := (in[i].Grid + resident - 1) / resident; (waves == 1) != (c.res.Waves == nil) || (waves > 1 && len(c.res.Waves) != waves) {
				t.Errorf("stats: %s on %s: %d waves, want ⌈%d CTAs / %d resident⌉ = %d (none recorded when that is 1)",
					in[i].Name, row, len(c.res.Waves), in[i].Grid, resident, waves)
			}
			if c.res.Waves == nil {
				continue
			}
			multiWave++
			var fold sm.Stats
			var smSum int64
			for w := range c.res.Waves {
				fold.Merge(&c.res.Waves[w])
			}
			for _, n := range c.res.SMCycles {
				smSum += n
			}
			if fold != c.res.Stats || len(c.res.SMCycles) != shape.sms || smSum != c.res.Stats.Cycles || c.res.DeviceCycles() > smSum {
				t.Errorf("stats: %s on %s: the merge is not the fold of %d waves on %d SMs (SM cycles %v, device cycles %d, cycles %d)",
					in[i].Name, row, len(c.res.Waves), shape.sms, c.res.SMCycles, c.res.DeviceCycles(), c.res.Stats.Cycles)
			}
		}
		if multiWave == 0 {
			t.Errorf("stats: %s split no input into waves", row)
		}
	}
}

// checkReplayRow is the replay law over one replay row: every replay
// equals the full simulation of its configuration, DeviceCycles
// included; a trace replays exactly when its verdict says so; a
// recording outside the validity domain logs one line naming its
// kernel, and the sweep after it logs nothing.
func checkReplayRow(t *testing.T, r replayRow) {
	t.Helper()
	in := lawInputs()
	row := "replay/" + r.name
	checkOracle(t, row+"/full", r.full)
	if r.log != "" {
		t.Errorf("verdict: the sweep on %s logged:\n%s", row, r.log)
	}
	replayed := 0
	for i := range in {
		got, want := r.replayed[i], r.full[i]
		if log := r.rec.logs[i]; r.verdict[i] != (log == "") || (log != "" && (strings.Count(log, "\n") != 1 ||
			!strings.Contains(log, " program of "+in[i].Name+" is outside the trace-replay validity domain"))) {
			t.Errorf("verdict: %s on %s is replayable %v, and its recording logged %q", in[i].Name, row, r.verdict[i], log)
		}
		switch {
		case got.err != nil:
			t.Errorf("replay: %s on %s: %v", in[i].Name, row, got.err)
		case got.res.Replayed != r.verdict[i]:
			t.Errorf("verdict: %s on %s: replayed %v, but the verdict is %v", in[i].Name, row, got.res.Replayed, r.verdict[i])
		case want.err == nil && (got.res.Stats != want.res.Stats || got.res.DeviceCycles() != want.res.DeviceCycles()):
			t.Errorf("replay: %s on %s differs from the full simulation\n got %+v\nwant %+v", in[i].Name, row, got.res.Stats, want.res.Stats)
		}
		if got.err == nil && got.res.Replayed {
			replayed++
		}
	}
	if replayed == 0 {
		t.Errorf("replay: no input on %s was served by replay — the engine never engaged", row)
	}
}

// TestTraceReplaySuiteSweepEquivalence is the replay law on every
// architecture's replay row: a timing sweep routed through
// WithTraceReplay — one shared SimCache, recorded by the flat row —
// equals fresh full simulation at every point, while racy kernels
// (BFS) fall back with the reason logged once each. Every race-free
// input also replays, on some thread-frontier row, the recording
// another architecture made.
func TestTraceReplaySuiteSweepEquivalence(t *testing.T) {
	rows := replayRows()
	bfs := slices.IndexFunc(lawInputs(), func(b *kernels.Benchmark) bool { return b.Name == "BFS" })
	for _, r := range rows[:len(rows)-1] {
		checkReplayRow(t, r)
		if r.rec.logs[bfs] == "" {
			t.Errorf("verdict: racy BFS recorded on %s without falling back", r.name)
		}
	}
	archs := sm.Architectures()
	for i, b := range lawInputs() {
		cross := false
		for k, r := range rows[1 : len(rows)-1] { // the thread-frontier rows
			c := r.replayed[i]
			cross = cross || c.err == nil && c.res.Replayed && r.arch[i] != archs[k+1]
		}
		if rows[0].verdict[i] && !cross {
			t.Errorf("replay: race-free %s never replayed another thread-frontier architecture's recording", b.Name)
		}
	}
}

// TestReplayedSuiteLeavesImagesAlone: a replayed suite entry runs over
// a launch with no memory image (kernels.Benchmark.ReplayLaunch), so
// after the replay rows — every input re-timed on all five
// architectures — each input's pristine image and oracle are still
// what its generator and reference make afresh.
func TestReplayedSuiteLeavesImagesAlone(t *testing.T) {
	replayRows()
	for _, b := range lawInputs() {
		pristine, params := b.Setup(b)
		want := append([]byte(nil), pristine...)
		b.Reference(b, want, params)
		l, err := b.NewLaunch(false)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(l.Global, pristine) || !bytes.Equal(b.Expected(), want) {
			t.Errorf("%s: after the replay rows its pristine image or oracle moved", b.Name)
		}
	}
}

// TestTraceReplayMemsysEquivalence is the replay law on the heaviest
// timing path: partitioned waves on 4 SMs against the shared L2/NoC
// clock, swept over crossbar bandwidth. Run under -race in CI, it also
// holds replaying waves to sharing the launch read-only.
func TestTraceReplayMemsysEquivalence(t *testing.T) {
	rows := replayRows()
	checkReplayRow(t, rows[len(rows)-1])
}

// TestMemsysConservation is the conservation law over the memsys row's
// whole-grid and partitioned shapes (one multi-slot domain, the L1 side
// summed over its waves): every L2 access entered through a crossbar
// port (NoC requests = L2 loads + stores, bytes = requests × block
// size), every L1 store transaction reaches the L2, and the L2 sees at
// most the L1s' misses as loads, short at most their MSHR merges.
func TestMemsysConservation(t *testing.T) {
	r := memsysRow()
	bb := uint64(sm.Configure(sm.ArchSBISWI).Mem.BlockBytes)
	for _, shape := range []struct {
		name  string
		cells []lawCell
	}{{"whole-grid", r.whole}, {"partitioned", r.rec.cells}} {
		for i, b := range lawInputs() {
			t.Run(shape.name+"/"+b.Name, func(t *testing.T) {
				c := shape.cells[i]
				if c.err != nil {
					t.Fatal(c.err)
				}
				l1, l2, nc := &c.res.Stats.Mem, &c.res.Stats.Mem.L2, &c.res.Stats.Mem.NoC
				if nc.Requests != l2.Loads+l2.Stores {
					t.Errorf("%d NoC requests, want the %d+%d L2 loads+stores", nc.Requests, l2.Loads, l2.Stores)
				}
				if nc.Bytes != nc.Requests*bb {
					t.Errorf("%d NoC bytes, want requests×blockBytes = %d", nc.Bytes, nc.Requests*bb)
				}
				if l2.Stores != l1.Stores {
					t.Errorf("L2 saw %d stores, L1 sent %d: store traffic lost below the L1", l2.Stores, l1.Stores)
				}
				if l2.Loads > l1.Misses || l2.Loads+l1.MSHRMerges < l1.Misses {
					t.Errorf("L2 saw %d loads for %d L1 misses (%d merges)", l2.Loads, l1.Misses, l1.MSHRMerges)
				}
			})
		}
	}
}
