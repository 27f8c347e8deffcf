package main

import (
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/kernels"
	"repro/internal/sm"
)

// paperFig7 are the geometric-mean speed-ups over the baseline that
// the repository quotes from the paper's figure 7, in percent.
var paperFig7 = []struct {
	set   func() []*kernels.Benchmark
	paper []paperSpeedup
}{
	{kernels.Regular, []paperSpeedup{{sm.ArchSBI, 15}, {sm.ArchSWI, 25}}},
	{kernels.Irregular, []paperSpeedup{{sm.ArchSBI, 41}, {sm.ArchSWI, 33}, {sm.ArchSBISWI, 40}}},
}

type paperSpeedup struct {
	arch sm.Arch
	pct  float64
}

// runTraced is the traced run. A quarter of the budget goes to plain
// passes under the CPU profiler (harness statistics, simulated
// counters, per-layer CPU shares); then one pass runs with spans on,
// the ladder re-drives every cell of the workload layer by layer, and
// the leaf and device rungs price single calls. End-to-end metrics are
// never taken here.
func runTraced(def *workloadDef, inst *instance, warm *passOut, workers int, o *options) (*result, error) {
	m := metricSet{}

	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	s, err := measure(inst.pass, time.Duration(o.seconds/4*float64(time.Second)), 2)
	shares, perr := prof.shares()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	res, err := verify(def, inst, warm, s.outs, o)
	if err != nil {
		return nil, err
	}
	for _, l := range layers {
		m[l+".cpu_share"] = shares[l]
	}
	p10 := percentile(s.wall(), 0.10)
	m["bench.pass_s_p50"] = percentile(s.wall(), 0.5)
	m["bench.pass_s_hi"] = hiSample(s.wall())
	m["bench.passes"] = float64(len(s.passes))
	m["bench.noise_ratio"] = percentile(s.wall(), 0.5) / p10
	m["runtime.gc_cpu_share"] = s.gcCPUShare
	m["runtime.allocs_per_pass"] = percentile(s.column(func(p passSample) float64 { return p.mallocs }), 0.5)
	m["runtime.peak_heap_mb"] = s.peakHeapMB

	// The traced pass is the same pass with a span around every call
	// into a layer. Cheap passes are repeated and the fastest kept, as
	// p10 keeps the fastest of the untraced ones; the spans are the
	// first repeat's.
	var tr *tracer
	tracedWall := math.Inf(1)
	for i := min(max(int(1.5/p10), 1), 3); i > 0; i-- {
		t := newTracer(def.name)
		root := t.begin("bench.pass", "")
		t0 := time.Now()
		traced, err := inst.pass(t)
		tracedWall = min(tracedWall, time.Since(t0).Seconds())
		t.end(root)
		if err != nil {
			return nil, err
		}
		if tr == nil {
			tr = t
		}
		res.Attempted++
		if traced.digest() != warm.digest() {
			res.Failed++
			fmt.Fprintln(os.Stderr, "bench: FAILED: the traced pass computed something else than the untraced ones")
		}
	}
	m["bench.trace_overhead_pct"] = 100 * (tracedWall - p10) / p10

	ld, err := runLadder(tr, inst.cells, workers)
	if err != nil {
		return nil, err
	}
	res.Attempted += 3 * ld.cells
	res.Failed += ld.mismatches
	res.Correct = res.Failed == 0
	ladderMetrics(m, ld, inst)
	m["bench.ladder_coverage"] = ld.devRun / percentile(s.cpu(), 0.10)

	// Simulated counters: exact sums over one pass's launches, or over
	// the ladder's full runs where a pass does not show its launches.
	stats := warm.merged()
	if len(warm.results) == 0 {
		stats = ld.stats
	}
	counterMetrics(m, &stats)
	m["device.replay_fallbacks"] = float64(warm.fallbacks)

	if err := leafRungs(m, o.seed, workers); err != nil {
		return nil, err
	}
	if err := deviceRungs(m, o.seed, workers); err != nil {
		return nil, err
	}
	if warm.replayed > 0 {
		// The replay sweep prices its own record and replay points.
		var rec, rep []float64
		for _, out := range s.outs {
			rec = append(rec, out.pointSecs[0])
			rep = append(rep, out.pointSecs[1:]...)
		}
		m["replay.record_point_ms"] = 1e3 * percentile(rec, 0.10)
		m["replay.replay_point_ms"] = 1e3 * percentile(rep, 0.10)
	}
	if inst.extras != nil {
		if err := inst.extras(m, warm); err != nil {
			return nil, err
		}
	}

	fmt.Printf("passes %d  ladder cells %d  spans %d\n", len(s.passes), ld.cells, len(tr.spans))
	printAgreement(m, ld)
	if o.spans != "" {
		if err := tr.write(o.spans); err != nil {
			return nil, err
		}
	}
	var table string
	if res.Metrics, table, err = selectMetrics(perLayer, m); err != nil {
		return nil, err
	}
	fmt.Print(table)
	return res, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ladderMetrics turns the ladder's rung totals into per-layer numbers.
func ladderMetrics(m metricSet, ld *ladder, inst *instance) {
	cells := float64(ld.cells)
	m["kernels.newlaunch_us"] = 1e6 * ld.newLaunch / cells
	m["exec.reference_minstr_per_s"] = ratio(float64(ld.refInstrs), ld.reference) / 1e6
	m["sm.host_ns_per_cycle"] = 1e9 * ratio(ld.full, float64(ld.cycles))
	m["sm.replay_ns_per_cycle"] = 1e9 * ratio(ld.replay, float64(ld.replayCycles))
	m["sm.record_overhead_pct"] = 100 * ratio(ld.record-ld.full, ld.full)
	m["exec.share_of_sm"] = ratio(ld.replayFull-ld.replay, ld.replayFull)
	m["replay.finalize_ms"] = 1e3 * ld.finalize / cells
	m["replay.trace_bytes_per_kinstr"] = 1e3 * ratio(ld.traceBytes, float64(ld.traceInstrs))
	for _, a := range sm.Architectures() {
		name := "sm.minstr_per_s." + strings.ToLower(strings.ReplaceAll(a.String(), "+", ""))
		m[name] = ratio(float64(ld.instrsByArch[a]), ld.fullByArch[a]) / 1e6
	}

	// The oracle: the Go reference of a suite kernel, or the functional
	// simulator for a generated one.
	if len(inst.benches) == 0 {
		m["kernels.oracle_ms"] = 1e3 * ld.reference / cells
	} else {
		var total time.Duration
		for _, b := range inst.benches {
			img, params := b.Setup(b)
			t0 := time.Now()
			b.Reference(b, img, params)
			total += time.Since(t0)
		}
		m["kernels.oracle_ms"] = 1e3 * total.Seconds() / float64(len(inst.benches))
	}

	m["sim.speedup_gmean"], _ = ld.speedup(sm.ArchSBISWI, fig7Kernels(ld.kernels))
	// The accuracy figure needs the speed-ups figure 7 reports, so it
	// exists where the ladder ran a whole class on those architectures.
	var errs []float64
	for _, class := range paperFig7 {
		for _, p := range class.paper {
			if g, ok := ld.speedup(p.arch, fig7Kernels(names(class.set()))); ok {
				errs = append(errs, math.Abs(100*(g-1)-p.pct))
			}
		}
	}
	m["sim.fig7_speedup_err_pp"] = mean(errs)
}

func names(set []*kernels.Benchmark) []string {
	out := make([]string, len(set))
	for i, b := range set {
		out[i] = b.Name
	}
	return out
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// counterMetrics reports the simulated counters that explain where a
// workload's issue slots and memory transactions went.
func counterMetrics(m metricSet, s *sm.Stats) {
	m["sm.cycles"] = float64(s.Cycles)
	m["sm.issue_slots"] = float64(s.IssueSlots)
	m["sm.secondary_issue_share"] = s.SecondaryShare()
	m["sm.sbi_pairs"] = float64(s.SBIPairs)
	m["sm.swi_pairs"] = float64(s.SWIPairs)
	m["sm.scoreboard_stall_share"] = ratio(float64(s.ScoreboardStalls), float64(s.ScoreboardChecks))
	m["sm.structural_stalls"] = float64(s.StructuralStalls)
	m["sm.barrier_waits"] = float64(s.BarrierWaits)
	m["sm.divergences"] = float64(s.Divergences)
	m["mem.l1_hit_rate"] = ratio(float64(s.Mem.Hits), float64(s.Mem.Hits+s.Mem.Misses))
	m["mem.l2_hit_rate"] = s.Mem.L2.HitRate()
	m["mem.mshr_merges"] = float64(s.Mem.MSHRMerges + s.Mem.L2.MSHRMerges)
	m["mem.store_queue_stalls"] = float64(s.Mem.StoreQueueStalls)
	m["mem.transactions"] = float64(s.Transactions)
	m["noc.requests"] = float64(s.Mem.NoC.Requests)
	m["noc.queue_cycles"] = float64(s.Mem.NoC.QueueCycles)
}

// printAgreement puts the ladder's view of two layers next to the CPU
// profile's and warns when they disagree by more than ten points: the
// two instruments measure different runs (one goroutine layer by layer
// against the real concurrent pass), so agreement is the evidence that
// either can be trusted.
func printAgreement(m metricSet, ld *ladder) {
	fmt.Println("ladder self time (s, one goroutine, summed over cells):")
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"kernels  NewLaunch + oracle compare", ld.newLaunch + ld.compare},
		{"exec     sm.Run - replayed walk", ld.replayFull - ld.replay},
		{"sm walk  sm.Run - exec", ld.full - (ld.replayFull - ld.replay)},
		{"replay   record + Finalize - sm.Run", ld.record + ld.finalize - ld.full},
		{"device   Device.Run - sm.Run", ld.devRun - ld.full},
		{"total    NewLaunch + Device.Run + compare", ld.newLaunch + ld.devRun + ld.compare},
	} {
		fmt.Printf("  %-44s %10.4f\n", r.name, r.v)
	}
	// exec's share of exec+walk, both ways. The profile splits the walk
	// over sm, sched, reconv, mem and noc.
	walk := m["sm.cpu_share"] + m["sched.cpu_share"] + m["reconv.cpu_share"] + m["mem.cpu_share"] + m["noc.cpu_share"]
	profShare := ratio(m["exec.cpu_share"], m["exec.cpu_share"]+walk)
	fmt.Printf("exec share of the SM run: ladder %.3f  profile %.3f\n", m["exec.share_of_sm"], profShare)
	if math.Abs(m["exec.share_of_sm"]-profShare) > 0.10 {
		fmt.Println("WARNING: ladder and CPU profile disagree on exec's share by more than 10 points")
	}
	ladderDev := ratio(ld.devRun-ld.full, ld.devRun)
	fmt.Printf("device share of a launch: ladder %.3f  profile %.3f  (run overhead %.2f us on a tiny launch)\n",
		ladderDev, m["device.cpu_share"], m["device.run_overhead_us"])
	if math.Abs(ladderDev-m["device.cpu_share"]) > 0.10 {
		fmt.Println("WARNING: ladder and CPU profile disagree on the device's share by more than 10 points")
	}
}
