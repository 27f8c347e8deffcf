// Command bench is the repository's benchmark: seven workloads over
// the simulator's public entry points, measured end to end, and a
// traced mode that re-drives the same work one layer at a time. See
// README.md for the workloads, the metrics and how they interact, and
// ../BENCHMARK.json for the contract the numbers are gated under.
//
//	go run -C bench . -workload suite-irregular -seed 1 -seconds 10 -trace 0
//	go run -C bench . -workload suite-irregular -seed 1 -seconds 10 -trace 1 -spans spans.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// processStart is as close to the start of the process as Go code gets;
// set-up time is counted from here.
var processStart = time.Now()

func main() {
	os.Exit(run())
}

type options struct {
	workload      string
	seed          uint64
	seconds       float64
	trace         int
	spans         string
	updateDigests bool
}

func run() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Uint64Var(&o.seed, "seed", 1, "the only source of randomness: launch-storm kernels and shapes, sweep bandwidth points, leaf-rung operand streams")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long to measure")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from the traced ladder, rungs and CPU profile")
	flag.StringVar(&o.spans, "spans", "", "with -trace 1, write the recorded spans to this file as JSON lines")
	flag.BoolVar(&o.updateDigests, "update-digests", false, "record this run's digest in "+digestsPath+" instead of checking it")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json as this program defines it and exit")
	setupProbe := flag.Bool("setup-probe", false, "set the workload up, print the seconds it took since process start and exit (used by the parent run to sample set-up time)")
	flag.Parse()

	if *printManifest {
		b, err := manifest()
		if err != nil {
			return fail(err)
		}
		os.Stdout.Write(b)
		return 0
	}
	def := findWorkload(o.workload)
	if def == nil || flag.NArg() > 0 || o.trace < 0 || o.trace > 1 || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "usage: bench -workload {%s} [-seed N] [-seconds S] [-trace 0|1]\n", workloadNames())
		return 2
	}

	// All load comes from this process, on at most four cores, with
	// every device's worker pool at the same number.
	workers := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(workers)

	inst, err := def.build(o.seed, workers)
	if err != nil {
		return fail(err)
	}
	warm, err := inst.pass(nil)
	if err != nil {
		return fail(err)
	}
	setup := time.Since(processStart).Seconds()
	if *setupProbe {
		fmt.Printf("%.6f\n", setup)
		return 0
	}

	h := hostInfo()
	fmt.Printf("workload %s  seed %d  trace %d\n", def.name, o.seed, o.trace)
	fmt.Printf("host: nproc %d  GOMAXPROCS %d  %s  %s\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel)

	var res *result
	if o.trace == 0 {
		res, err = runEndToEnd(def, inst, warm, setup, &o)
	} else {
		res, err = runTraced(def, inst, warm, workers, &o)
	}
	if err != nil {
		return fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

func workloadNames() string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// runEndToEnd is the untraced run: passes back to back for the whole
// budget, then the metrics a user of the simulator would see.
func runEndToEnd(def *workloadDef, inst *instance, warm *passOut, setup float64, o *options) (*result, error) {
	// Set-up is sampled before anything is measured, in fresh
	// processes: the simulator memoizes per process, so a second set-up
	// here would find the work already done.
	setups, err := sampleSetups(setup, o)
	if err != nil {
		return nil, err
	}
	s, err := measure(inst.pass, time.Duration(o.seconds*float64(time.Second)), 3)
	if err != nil {
		return nil, err
	}
	res, err := verify(def, inst, warm, s.outs, o)
	if err != nil {
		return nil, err
	}
	p10 := percentile(s.wall(), 0.10)
	m := metricSet{
		"setup_s":             percentile(setups, 0.5),
		"pass_s_p10":          p10,
		"cpu_s_per_pass":      percentile(s.cpu(), 0.10),
		"thread_instrs_per_s": float64(warm.threadInstrs()) / p10,
		"launches_per_s":      float64(warm.launches) / p10,
		"alloc_mb_per_pass":   percentile(s.column(func(p passSample) float64 { return p.allocMB }), 0.5),
	}
	fmt.Printf("passes %d  min %.4fs  p50 %.4fs  noise (p50/p10) %.3f  set-up samples %d\n",
		len(s.passes), percentile(s.wall(), 0), percentile(s.wall(), 0.5), percentile(s.wall(), 0.5)/p10, len(setups))
	var table string
	if res.Metrics, table, err = selectMetrics(endToEnd, m); err != nil {
		return nil, err
	}
	fmt.Print(table)
	return res, nil
}

// sampleSetups returns this process's own set-up time plus that of a
// few fresh processes set up the same way: more of them the cheaper
// set-up is, within about six seconds in all.
func sampleSetups(own float64, o *options) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	setups := []float64{own}
	for n := min(max(int(6/own), 2), 4); n > 0; n-- {
		cmd := exec.Command(self, "-setup-probe", "-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10))
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe printed %q: %w", out, err)
		}
		setups = append(setups, v)
	}
	return setups, nil
}

// verify checks what the passes computed: every operation of every
// pass succeeded (RunSuite has already compared each final image with
// its Go oracle), every pass reproduced the warm-up pass's digest, the
// digest equals the workload's reference where it has one (replay
// against full simulation), and it equals the checked-in digest where
// one is recorded for these inputs.
func verify(def *workloadDef, inst *instance, warm *passOut, outs []*passOut, o *options) (*result, error) {
	res := &result{}
	var errs []string
	check := func(ok bool, format string, args ...any) {
		res.Attempted++
		if !ok {
			res.Failed++
			errs = append(errs, fmt.Sprintf(format, args...))
		}
	}
	want := warm.digest()
	for i, out := range append([]*passOut{warm}, outs...) {
		res.Attempted += out.ops
		res.Failed += out.failed
		errs = append(errs, out.errs...)
		if i > 0 {
			got := out.digest()
			check(got == want, "pass %d digest %s differs from the warm-up pass's %s", i, got, want)
		}
	}
	if inst.mustEqual != "" {
		check(want == inst.mustEqual, "digest %s differs from the full-simulation reference %s", want, inst.mustEqual)
	}
	key := def.name
	if def.seeded {
		key = fmt.Sprintf("%s@%d", def.name, o.seed)
	}
	if o.updateDigests {
		if err := updateDigest(key, want); err != nil {
			return nil, err
		}
	} else {
		recorded, err := loadDigests()
		if err != nil {
			return nil, err
		}
		if rec, ok := recorded[key]; ok {
			check(want == rec, "digest %s differs from %s recorded in %s (a model change needs -update-digests)", want, rec, digestsPath)
		}
	}
	res.Correct = res.Failed == 0
	for i, e := range errs {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "bench: ... and %d more\n", len(errs)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "bench: FAILED:", e)
	}
	return res, nil
}
