package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	sbwi "repro"
	"repro/internal/exec"
	"repro/internal/replay"
	"repro/internal/sm"
)

// span is one timed call from the benchmark into a layer.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 at the root
	Name     string `json:"name"`   // layer.Function
	Workload string `json:"workload"`
	Cell     string `json:"cell,omitempty"`
	StartNS  int64  `json:"start_ns"` // since the tracer was made
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced passes run the same code. It is
// driven from the benchmark's own goroutine only.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, t0: time.Now()} }

func (t *tracer) begin(name, cell string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Cell: cell, StartNS: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNS = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// timed runs fn inside a span and returns its duration in seconds.
func (t *tracer) timed(name, cell string, fn func() error) (float64, error) {
	id := t.begin(name, cell)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0).Seconds()
	t.end(id)
	return d, err
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ladder is the outcome of re-driving every cell of a workload one
// layer at a time. Spans cannot reach inside Device.RunSuite, so each
// rung runs the same cell through one layer more than the rung before,
// and a layer's self time is the difference between sibling rungs.
// All times are seconds summed over the cells, on one goroutine.
type ladder struct {
	cells int

	newLaunch float64 // kernels.NewLaunch
	reference float64 // exec.RunReference: functional execution alone
	record    float64 // sm.RunRangeOpts{Record}: full run plus trace sinks
	finalize  float64 // replay.Recorder.Finalize: race analysis
	full      float64 // sm.Run: issue walk plus functional execution
	devRun    float64 // Device.Run: sm.Run plus the device around it
	compare   float64 // oracle image comparison

	// The replay rung (sm.RunRangeOpts{Replay}: the issue walk with the
	// functional work stubbed) exists only for race-free cells, so it
	// carries its own matching share of the full rung.
	replay, replayFull float64
	replayCycles       int64

	refInstrs  uint64
	cycles     int64
	mismatches int

	fullByArch   map[sm.Arch]float64
	instrsByArch map[sm.Arch]uint64
	stats        sm.Stats                       // the full runs' statistics, merged
	kernels      []string                       // in ladder order
	ipc          map[string]map[sm.Arch]float64 // kernel -> arch -> simulated IPC

	traceBytes  float64 // heap retained by the recorded traces
	traceInstrs uint64  // thread-instructions those traces cover
}

// heapAlloc is the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func runLadder(tr *tracer, cells []cell, workers int) (*ladder, error) {
	ld := &ladder{
		fullByArch:   map[sm.Arch]float64{},
		instrsByArch: map[sm.Arch]uint64{},
		ipc:          map[string]map[sm.Arch]float64{},
	}
	devs := map[sm.Arch]*sbwi.Device{}
	root := tr.begin("bench.ladder", "")
	defer tr.end(root)
	for i := range cells {
		c := &cells[i]
		tf := c.arch != sm.ArchBaseline
		config := sm.Configure(c.arch)
		dev := devs[c.arch]
		if dev == nil {
			var err error
			if dev, err = sbwi.NewDevice(sbwi.WithArch(c.arch), sbwi.WithWorkers(workers)); err != nil {
				return nil, err
			}
			devs[c.arch] = dev
		}
		sp := tr.begin("bench.cell", c.id())

		// Rung 1: build the launch.
		var l *exec.Launch
		d, err := tr.timed("kernels.NewLaunch", c.id(), func() (err error) { l, err = c.launch(tf); return })
		if err != nil {
			return nil, err
		}
		ld.newLaunch += d

		// Rung 2: functional execution alone, on the plain program.
		refLaunch, err := c.launch(false)
		if err != nil {
			return nil, err
		}
		var ref *exec.RefResult
		if d, err = tr.timed("exec.RunReference", c.id(), func() (err error) { ref, err = exec.RunReference(refLaunch, 32); return }); err != nil {
			return nil, fmt.Errorf("%s: %w", c.id(), err)
		}
		ld.reference += d
		ld.refInstrs += ref.ThreadInstrs

		// Rung 3: the full simulation with trace sinks, then the race
		// analysis. The retained heap is sampled around it on one
		// architecture only: the other thread-frontier traces are alike.
		measureHeap := c.arch == sm.ArchSBISWI
		var heap0 uint64
		if measureHeap {
			heap0 = heapAlloc()
		}
		rec := replay.NewRecorder(l.GridDim, l.BlockDim)
		var recRes *sm.Result
		if d, err = tr.timed("sm.RunRangeOpts{Record}", c.id(), func() (err error) {
			recRes, err = sm.RunRangeOpts(ctx, config, l, 0, l.GridDim, sm.RunOpts{Record: rec.Sink()})
			return
		}); err != nil {
			return nil, fmt.Errorf("%s: record: %w", c.id(), err)
		}
		ld.record += d
		var trace *replay.Trace
		d, _ = tr.timed("replay.Recorder.Finalize", c.id(), func() error { trace = rec.Finalize(); return nil })
		ld.finalize += d
		rec = nil
		if measureHeap {
			ld.traceBytes += math.Max(0, float64(heapAlloc())-float64(heap0))
			ld.traceInstrs += recRes.Stats.ThreadInstrs
		}

		// Rung 5 before rung 4, because the replay rung needs the full
		// run's statistics to compare with.
		if l, err = c.launch(tf); err != nil {
			return nil, err
		}
		var full *sm.Result
		dFull, err := tr.timed("sm.Run", c.id(), func() (err error) { full, err = sm.Run(config, l); return })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.id(), err)
		}
		ld.full += dFull
		ld.cycles += full.Stats.Cycles
		ld.fullByArch[c.arch] += dFull
		ld.instrsByArch[c.arch] += full.Stats.ThreadInstrs
		ld.stats.Merge(&full.Stats)
		if ld.ipc[c.kernel] == nil {
			ld.ipc[c.kernel] = map[sm.Arch]float64{}
			ld.kernels = append(ld.kernels, c.kernel)
		}
		ld.ipc[c.kernel][c.arch] = full.Stats.IPC()
		if !bytes.Equal(l.Global, c.expected) {
			ld.mismatches++
		}

		// Rung 4: the issue walk alone, replaying the recorded trace.
		if trace.Replayable {
			if l, err = c.launch(tf); err != nil {
				return nil, err
			}
			session, err := replay.NewSession(trace, 0, l.GridDim)
			if err != nil {
				return nil, err
			}
			var rep *sm.Result
			if d, err = tr.timed("sm.RunRangeOpts{Replay}", c.id(), func() (err error) {
				rep, err = sm.RunRangeOpts(ctx, config, l, 0, l.GridDim, sm.RunOpts{Replay: session})
				return
			}); err != nil {
				return nil, fmt.Errorf("%s: replay: %w", c.id(), err)
			}
			ld.replay += d
			ld.replayFull += dFull
			ld.replayCycles += rep.Stats.Cycles
			if rep.Stats != full.Stats {
				ld.mismatches++
			}
		}
		runtime.KeepAlive(trace)

		// Rung 6: the same launch through the device.
		if l, err = c.launch(tf); err != nil {
			return nil, err
		}
		var devRes *sm.Result
		if d, err = tr.timed("device.Run", c.id(), func() (err error) { devRes, err = dev.Run(ctx, l); return }); err != nil {
			return nil, fmt.Errorf("%s: device: %w", c.id(), err)
		}
		ld.devRun += d
		if devRes.Stats != full.Stats {
			ld.mismatches++
		}

		// Rung 7: the oracle check RunSuite makes on every entry.
		equal := false
		d, _ = tr.timed("kernels.compare", c.id(), func() error { equal = bytes.Equal(l.Global, c.expected); return nil })
		ld.compare += d
		if !equal {
			ld.mismatches++
		}
		ld.cells++
		tr.end(sp)
	}
	return ld, nil
}

// speedup is the geometric mean over kernels of IPC(arch) /
// IPC(Baseline) as the ladder's full runs simulated them. It reports
// false unless the ladder ran every one of the kernels on both.
func (ld *ladder) speedup(arch sm.Arch, kernels []string) (float64, bool) {
	var logSum float64
	for _, k := range kernels {
		base, a := ld.ipc[k][sm.ArchBaseline], ld.ipc[k][arch]
		if base == 0 || a == 0 {
			return 0, false
		}
		logSum += math.Log(a / base)
	}
	if len(kernels) == 0 {
		return 0, false
	}
	return math.Exp(logSum / float64(len(kernels))), true
}

// fig7Kernels drops what figure 7's means leave out: the paper excludes
// the TMD pair, and WriteStorm postdates it.
func fig7Kernels(names []string) []string {
	var out []string
	for _, k := range names {
		if k != "TMD1" && k != "TMD2" && k != "WriteStorm" {
			out = append(out, k)
		}
	}
	return out
}
