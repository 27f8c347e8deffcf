package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// runSeconds is how long one run measures unless -seconds says
// otherwise; BENCHMARK.json carries the same number.
const runSeconds = 10

// metricDef declares one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// metricSet holds measured values by metric name.
type metricSet map[string]float64

// endToEnd are the metrics a user of the simulator sees, reported by
// every workload with -trace 0. The bounds are a multiple of the
// run-to-run spread measured when the benchmark was defined (README).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"pass_s_p10", "s", "lower", 0.25},
	{"cpu_s_per_pass", "s", "lower", 0.25},
	{"thread_instrs_per_s", "1/s", "higher", 0.25},
	{"launches_per_s", "1/s", "higher", 0.25},
	{"alloc_mb_per_pass", "MB", "lower", 0.03},
}

func lower(unit string, names ...string) []metricDef  { return defs(unit, "lower", names) }
func higher(unit string, names ...string) []metricDef { return defs(unit, "higher", names) }

func defs(unit, better string, names []string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: unit, Better: better}
	}
	return out
}

// perLayer are the metrics of single layers, reported by every workload
// with -trace 1. A metric whose layer a workload does not reach reads 0
// there; README.md says which end-to-end metric each one should move.
var perLayer = concat(
	// Front end and kernels: paid once per kernel, so they move setup_s.
	lower("us", "asm.assemble_us", "cfg.annotate_us", "kernels.newlaunch_us"),
	lower("ms", "kernels.oracle_ms"),
	// Functional execution.
	higher("Minstr/s", "exec.reference_minstr_per_s"),
	lower("ns", "exec.evalalu_ns"),
	lower("us", "exec.merge_waves_us"),
	lower("ratio", "exec.share_of_sm"),
	// The SM issue walk: host cost, then the simulated counters that
	// say how much of it a workload asked for.
	lower("ns", "sm.host_ns_per_cycle", "sm.replay_ns_per_cycle", "sm.step_ns"),
	higher("Minstr/s", "sm.minstr_per_s.baseline", "sm.minstr_per_s.sbi", "sm.minstr_per_s.swi", "sm.minstr_per_s.sbiswi", "sm.minstr_per_s.warp64"),
	lower("%", "sm.record_overhead_pct"),
	lower("us", "sm.newrunner_us"),
	lower("count", "sm.allocs_per_run", "sm.cycles", "sm.issue_slots", "sm.structural_stalls", "sm.barrier_waits", "sm.divergences"),
	higher("count", "sm.sbi_pairs", "sm.swi_pairs"),
	higher("ratio", "sm.secondary_issue_share"),
	lower("ratio", "sm.scoreboard_stall_share"),
	lower("ns", "sched.readyat_ns", "sched.issue_ns", "sched.horizon_ns", "sched.lookup_ns"),
	lower("ns", "reconv.heap_diverge_ns", "reconv.heap_advance_ns", "reconv.stack_ns"),
	// Memory system.
	lower("ns", "mem.l1_hit_ns", "mem.l1_miss_ns", "mem.l1_store_ns", "mem.l2_load_ns", "mem.l2_store_ns", "mem.coalesce_ns"),
	higher("ratio", "mem.l1_hit_rate", "mem.l2_hit_rate"),
	higher("count", "mem.mshr_merges"),
	lower("cycles", "mem.store_queue_stalls"),
	lower("count", "mem.transactions"),
	lower("ns", "noc.send_ns"),
	lower("count", "noc.requests"),
	lower("cycles", "noc.queue_cycles"),
	// Trace record and replay.
	lower("ns", "replay.record_ns_per_event", "replay.read_ns_per_event"),
	lower("ms", "replay.finalize_ms", "replay.record_point_ms", "replay.replay_point_ms"),
	lower("B", "replay.trace_bytes_per_kinstr"),
	higher("ratio", "replay.speedup_vs_fullsim"),
	lower("ns", "fingerprint.config_ns"),
	// The device around a launch and around a batch.
	lower("us", "device.run_overhead_us", "device.stream_enqueue_us", "device.run_latency_us_p50", "device.run_latency_us_p99", "device.new_us", "device.simcache_hit_us"),
	lower("%", "device.runsuite_overhead_pct"),
	higher("ratio", "device.suite_speedup_wN", "device.autopartition_speedup"),
	higher("count", "device.simcache_hits"),
	lower("count", "device.simcache_misses", "device.replay_fallbacks"),
	lower("ns", "device.memsys_ns_per_devcycle"),
	lower("ms", "experiments.warm_pass_ms", "experiments.render_ms"),
	lower("count", "experiments.cells"),
	// The Go runtime's share of the cost.
	lower("ratio", "runtime.gc_cpu_share"),
	lower("count", "runtime.allocs_per_pass"),
	lower("MB", "runtime.peak_heap_mb"),
	// CPU-profile share of each layer; the twelve sum to 1.
	lower("ratio", cpuShareNames()...),
	// Simulated results: exact, and the same on every run of a commit.
	higher("ratio", "sim.speedup_gmean"),
	lower("pp", "sim.fig7_speedup_err_pp"),
	// The harness itself.
	lower("s", "bench.pass_s_p50", "bench.pass_s_hi"),
	higher("count", "bench.passes"),
	lower("ratio", "bench.noise_ratio"),
	lower("%", "bench.trace_overhead_pct"),
	higher("ratio", "bench.ladder_coverage"),
)

func concat(groups ...[]metricDef) []metricDef {
	var out []metricDef
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

func cpuShareNames() []string {
	names := make([]string, len(layers))
	for i, l := range layers {
		names[i] = l + ".cpu_share"
	}
	return names
}

// manifest renders BENCHMARK.json from the tables above, so that the
// file and the program cannot drift apart; a test compares them.
func manifest() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	ws := make([]workload, len(workloadDefs))
	for i, w := range workloadDefs {
		ws[i] = workload{w.name, w.why}
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	pl := make([]layerDef, len(perLayer))
	for i, d := range perLayer {
		pl[i] = layerDef{d.Name, d.Unit, d.Better}
	}
	b, err := json.MarshalIndent(map[string]any{
		"command":     []string{"go", "run", "-C", "bench", "."},
		"paths":       []string{"bench"},
		"run_seconds": runSeconds,
		"workloads":   ws,
		"end_to_end":  endToEnd,
		"per_layer":   pl,
	}, "", "  ")
	return append(b, '\n'), err
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// selectMetrics picks the declared metrics out of m, in declaration order
// for the table and by name for the JSON line. A declared metric the
// run did not set reads 0; a value the run set under an undeclared
// name is a bug in this program.
func selectMetrics(declared []metricDef, m metricSet) (map[string]metricValue, string, error) {
	out := make(map[string]metricValue, len(declared))
	var table strings.Builder
	for _, d := range declared {
		out[d.Name] = metricValue{m[d.Name], d.Unit}
		fmt.Fprintf(&table, "  %-34s %16.6g %s\n", d.Name, m[d.Name], d.Unit)
	}
	var stray []string
	for name := range m {
		if _, ok := out[name]; !ok {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return nil, "", fmt.Errorf("metrics set but not declared: %s", strings.Join(stray, ", "))
	}
	return out, table.String(), nil
}
