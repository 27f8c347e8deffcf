package sbwi

// One testing.B benchmark per table and figure of the paper's
// evaluation (§5). Each iteration regenerates the experiment from
// scratch (fresh runner, no memoization across iterations) and reports
// the headline metric the paper quotes, so
//
//	go test -bench=. -benchmem
//
// both exercises the full pipeline and prints the reproduced numbers.

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/area"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/sm"
)

// gmeanCell extracts the last row's cell value (the experiments put
// their summary means there).
func lastRowCell(t *experiments.Table, col int) float64 {
	return t.Rows[len(t.Rows)-1].Cells[col].Val
}

// BenchmarkFig7aRegular regenerates figure 7(a): IPC of the ten
// regular applications on all five architectures. Reported metrics are
// the geometric-mean speedups over the baseline (paper: SBI +15%,
// SWI +25%).
func BenchmarkFig7aRegular(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		t, err := r.Fig7a()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastRowCell(t, 1), "SBI-speedup")
		b.ReportMetric(lastRowCell(t, 2), "SWI-speedup")
		b.ReportMetric(lastRowCell(t, 3), "both-speedup")
	}
}

// BenchmarkFig7bIrregular regenerates figure 7(b): IPC of the
// irregular applications — the paper's eleven plus the synthetic
// WriteStorm anchor (paper: SBI +41%, SWI +33%, both +40%; TMD
// excluded from the means).
func BenchmarkFig7bIrregular(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		t, err := r.Fig7b()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastRowCell(t, 1), "SBI-speedup")
		b.ReportMetric(lastRowCell(t, 2), "SWI-speedup")
		b.ReportMetric(lastRowCell(t, 3), "both-speedup")
	}
}

// BenchmarkFig8aConstraints regenerates figure 8(a): the selective
// synchronization constraints' effect on SBI and SBI+SWI (paper:
// negligible IPC effect on SBI, SortingNetworks +2.4% on SBI+SWI,
// issued instructions reduced).
func BenchmarkFig8aConstraints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		t, err := r.Fig8a()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastRowCell(t, 0), "SBI-constrained-speedup")
		b.ReportMetric(lastRowCell(t, 1), "both-constrained-speedup")
	}
}

// BenchmarkFig8bLaneShuffle regenerates figure 8(b): lane-shuffling
// policies under SWI on the irregular suite (paper: XorRev best,
// gmean +1.4% irregular).
func BenchmarkFig8bLaneShuffle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		t, err := r.Fig8b()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastRowCell(t, 3), "XorRev-speedup")
	}
}

// BenchmarkFig9Associativity regenerates figure 9: SWI lookup
// associativity (paper: direct-mapped keeps >=85% of fully-associative
// performance on irregular applications).
func BenchmarkFig9Associativity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		t, err := r.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastRowCell(t, 3), "direct-mapped-ratio")
	}
}

// BenchmarkTable2Parameters renders the configuration table.
func BenchmarkTable2Parameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table2().Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable3Storage computes the storage-requirement table from
// the parameterized bit-count model.
func BenchmarkTable3Storage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table3().Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable4Area computes the area table (paper: overheads 3.0%,
// 2.9%, 3.7% of a 15.6 mm^2 SM).
func BenchmarkTable4Area(b *testing.B) {
	g, k := area.PaperGeometry(), area.PaperCoefficients()
	for i := 0; i < b.N; i++ {
		t := experiments.Table4()
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
		_, frac := area.Overhead(g, k, area.SBISWI)
		b.ReportMetric(frac*100, "SBI+SWI-overhead-%")
	}
}

// BenchmarkFig2PipelineTrace exercises the figure-2 trace pipeline on
// the toy if/else kernel across all architectures.
func BenchmarkFig2PipelineTrace(b *testing.B) {
	prog, err := Assemble("fig2", `
	mov  r1, %tid
	and  r2, r1, 1
	isetp.eq r3, r2, 0
	bra  r3, even
	imul r4, r1, 3
	bra  join
even:
	iadd r4, r1, 100
join:
	shl  r5, r1, 2
	mov  r6, %p0
	iadd r6, r6, r5
	st.g [r6], r4
	exit
`)
	if err != nil {
		b.Fatal(err)
	}
	tf, err := ThreadFrontier(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range Architectures() {
			p := tf
			if a == Baseline {
				p = prog
			}
			cfg := sm.Configure(a)
			cfg.TraceCap = 256
			l := NewLaunch(p, 1, 128, make([]byte, 128*4), 0)
			res, err := sm.Run(cfg, l)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Trace.Lanes(cfg.WarpWidth)) == 0 {
				b.Fatal("empty trace")
			}
		}
	}
}

// BenchmarkAblationScoreboard compares the dependency-matrix
// scoreboard against the exact-mask oracle and the per-warp rule
// (design-choice study beyond the paper's figures).
func BenchmarkAblationScoreboard(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		t, err := r.AblationScoreboard()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastRowCell(t, 2), "per-warp-vs-matrix")
	}
}

// BenchmarkAblationMemSplit evaluates the DWS-style memory-divergence
// splitting extension on SBI+SWI.
func BenchmarkAblationMemSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		t, err := r.AblationMemSplit()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastRowCell(t, 0), "split-speedup")
	}
}

// BenchmarkSuiteRunner compares the serial seed-style suite loop (one
// sm.Run per benchmark, oracle-checked, in order) against the device
// batch runner, which dispatches the same oracle-checked simulations
// longest-job-first across the worker pool and routes the heavy tail
// through the wave-partitioned engine (WithAutoPartition). The suite
// is tail-bound by a handful of heavy kernels, so the batch runner's
// wall-clock approaches max(heaviest wave, total/workers) rather than
// dropping linearly with the core count; the device-parallel-w1/w4/wN
// axis makes the worker scaling visible in bench output. Per-kernel
// statistics stay bit-identical to the serial loop except for the
// auto-partitioned tail entries, which carry the partitioned timing
// model's numbers (deterministic for every worker count). No
// simulation cache is attached: every iteration simulates for real.
func BenchmarkSuiteRunner(b *testing.B) {
	suite := Benchmarks()
	b.Run("serial-seed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, bench := range suite {
				l, err := bench.NewLaunch(true)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sm.Run(sm.Configure(sm.ArchSBI), l); err != nil {
					b.Fatal(err)
				}
				if !bytes.Equal(l.Global, bench.Expected()) {
					b.Fatalf("%s diverged from reference", bench.Name)
				}
			}
		}
	})
	runDevice := func(b *testing.B, opts ...Option) {
		b.Helper()
		dev, err := NewDevice(append([]Option{WithArch(SBI), WithAutoPartition(true)}, opts...)...)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			results, err := dev.RunSuite(context.Background(), suite)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range results {
				if r.Err != nil {
					b.Fatalf("%s: %v", r.Bench.Name, r.Err)
				}
			}
		}
	}
	b.Run("device-parallel", func(b *testing.B) { runDevice(b) })
	workerAxis := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 4 {
		workerAxis = append(workerAxis, n)
	}
	for _, w := range workerAxis {
		b.Run(fmt.Sprintf("device-parallel-w%d", w), func(b *testing.B) {
			runDevice(b, WithWorkers(w))
		})
	}
}

// BenchmarkTraceReplay prices the record-once / replay-per-point
// engine on the memory-hierarchy sweep shape: the bandwidth-bound
// benchmarks partitioned across 4 SMs behind the shared L2, one fresh
// interconnect-bandwidth sweep point per iteration (every iteration
// gets a distinct bandwidth — a repeated point would be a pure
// result-cache hit and measure nothing). full-sim-per-point
// re-simulates the functional layer at every point; replay-per-point
// serves every point from the traces one pre-recorded run produced,
// still running the complete scheduling/timing machinery — only branch
// outcomes and effective addresses come from the table; record-once
// prices the recording run itself. The suite is the replayable subset
// of the memory-hierarchy benchmarks (BFS is outside the validity
// domain and runs full simulations in both modes, so it would only
// dilute the comparison).
func BenchmarkTraceReplay(b *testing.B) {
	var suite []*kernels.Benchmark
	for _, name := range []string{"Transpose", "Histogram"} {
		bench, ok := kernels.ByName(name)
		if !ok {
			b.Fatal("missing", name)
		}
		suite = append(suite, bench)
	}
	point := func(i int, extra ...Option) []Option {
		nc := DefaultNoCConfig()
		nc.BytesPerCycle = 2 + float64(i)
		return append([]Option{
			WithArch(SBISWI),
			WithSMs(4),
			WithGridPartition(true),
			WithL2(DefaultL2Config()),
			WithInterconnect(nc),
		}, extra...)
	}
	run := func(b *testing.B, opts []Option) {
		b.Helper()
		dev, err := NewDevice(opts...)
		if err != nil {
			b.Fatal(err)
		}
		results, err := dev.RunSuite(context.Background(), suite)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				b.Fatalf("%s: %v", r.Bench.Name, r.Err)
			}
		}
	}
	b.Run("full-sim-per-point", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, point(i))
		}
	})
	b.Run("replay-per-point", func(b *testing.B) {
		cache := NewSimCache()
		run(b, point(0, WithSimCache(cache), WithTraceReplay(true)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, point(1+i, WithSimCache(cache), WithTraceReplay(true)))
		}
	})
	b.Run("record-once", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, point(i, WithSimCache(NewSimCache()), WithTraceReplay(true)))
		}
	})
}

// BenchmarkKernel provides per-kernel micro-benchmarks of the cycle
// simulator itself (simulation throughput, not modeled IPC), one
// representative kernel per class.
func BenchmarkKernel(b *testing.B) {
	for _, name := range []string{"MatrixMul", "Mandelbrot", "TMD2"} {
		bench, ok := kernels.ByName(name)
		if !ok {
			b.Fatal("missing", name)
		}
		for _, a := range []sm.Arch{sm.ArchBaseline, sm.ArchSBISWI} {
			b.Run(name+"/"+a.String(), func(b *testing.B) {
				var instrs uint64
				for i := 0; i < b.N; i++ {
					l, err := bench.NewLaunch(a != sm.ArchBaseline)
					if err != nil {
						b.Fatal(err)
					}
					res, err := sm.Run(sm.Configure(a), l)
					if err != nil {
						b.Fatal(err)
					}
					instrs += res.Stats.ThreadInstrs
				}
				b.ReportMetric(float64(instrs)/float64(b.N)/b.Elapsed().Seconds()*float64(b.N), "thread-instrs/s")
			})
		}
	}
}
