package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10} // 1..10 shuffled
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.10, 1}, {0.11, 2}, {0.5, 5}, {0.99, 10}, {1, 10}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 0.10); got != 1 {
		t.Errorf("p10 of three samples = %v, want the fastest", got)
	}
	if vals[0] != 9 {
		t.Error("percentile reordered its input")
	}
}

func TestHiSampleKeepsTenBeyond(t *testing.T) {
	var vals []float64
	for i := 1; i <= 40; i++ {
		vals = append(vals, float64(i))
	}
	if got := hiSample(vals); got != 30 {
		t.Errorf("hiSample(1..40) = %v, want 30 (ten samples beyond it)", got)
	}
	if got := hiSample(vals[:12]); got != 6 {
		t.Errorf("hiSample(1..12) = %v, want the median 6: too few samples for a tail", got)
	}
}

// TestManifestMatchesBenchmarkJSON keeps ../BENCHMARK.json and the
// program's metric tables in step, and inside the contract's limits.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("../BENCHMARK.json differs from `go run -C bench . -manifest`; regenerate it")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}

	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(got, &m); err != nil {
		t.Fatal(err)
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", m.RunSeconds)
	}
	// The driver makes 4 + 22 x workloads runs inside 3420 s.
	if runs := 4 + 22*len(m.Workloads); float64(runs)*(float64(m.RunSeconds)+9) > 3420-120 {
		t.Errorf("%d runs of %d s leave no room for set-up and two builds", runs, m.RunSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range m.EndToEnd {
		use(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range append(m.EndToEnd, m.PerLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range m.PerLayer {
		use(d.Name)
	}
}

func TestSelectMetricsRejectsUndeclared(t *testing.T) {
	if _, _, err := selectMetrics(endToEnd, metricSet{"pass_s_p10": 1, "typo_s": 2}); err == nil {
		t.Error("a value under an undeclared name went through")
	}
	out, _, err := selectMetrics(endToEnd, metricSet{"pass_s_p10": 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(endToEnd) {
		t.Errorf("%d metrics selected, want every declared one (%d)", len(out), len(endToEnd))
	}
}

func TestSweepBandwidthsAreSeededAndNearTheLadder(t *testing.T) {
	a, b := sweepBandwidths(7), sweepBandwidths(7)
	other := sweepBandwidths(8)
	same := true
	for i, bw := range a {
		if bw != b[i] {
			t.Fatalf("seed 7 gave %v then %v", a, b)
		}
		same = same && bw == other[i]
		if lo := sweepLadder[i]; bw < lo || bw >= lo*1.03125 {
			t.Errorf("point %d = %v, outside [%v, %v)", i, bw, lo, lo*1.03125)
		}
	}
	if same {
		t.Error("seeds 7 and 8 gave the same points")
	}
}

func TestProgressTally(t *testing.T) {
	var p progressLog
	p.WriteString("  3DFD                   Baseline   IPC  20.50  (1000 cycles)\n")
	p.WriteString("  BFS                    SBI+SWI    IPC   3.25  (400 cycles)\n")
	sims, instrs, err := p.tally()
	if err != nil || sims != 2 || instrs != 20500+1300 {
		t.Errorf("tally = %d simulations, %d instructions, %v; want 2, 21800, nil", sims, instrs, err)
	}
	p.WriteString("something else\n")
	if _, _, err := p.tally(); err == nil {
		t.Error("an unparsable progress line went through")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sm.(*SM).step":              "sm",
		"repro/internal/exec.EvalALU":               "exec",
		"repro/internal/isa.(*Instruction).SrcRegs": "exec",
		"repro/internal/device.(*Device).run.func1": "device",
		"repro/internal/statcheck.Check":            "runtime",
		"repro.NewDevice":                           "device",
		"runtime.mallocgc":                          "runtime",
		"main.measure":                              "bench",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseTop(t *testing.T) {
	shares, err := parseTop(`File: bench
Type: cpu
Showing nodes accounting for 100ms, 100% of 100ms total
      flat  flat%   sum%        cum   cum%
      60ms 60.00% 60.00%       90ms 90.00%  repro/internal/sm.(*SM).step
      30ms 30.00% 90.00%       30ms 30.00%  repro/internal/exec.EvalALU
      10ms 10.00%   100%       10ms 10.00%  runtime.memmove
`)
	if err != nil {
		t.Fatal(err)
	}
	if shares["sm"] != 0.6 || shares["exec"] != 0.3 || shares["runtime"] != 0.1 {
		t.Errorf("shares = %v", shares)
	}
	if _, err := parseTop("no table here"); err == nil {
		t.Error("an output without samples went through")
	}
}

// TestDigestsRepeat runs one pass of the two cheapest simulation
// workloads twice in this process: the passes must agree with each
// other and, for the seed-independent one, with the checked-in digest.
func TestDigestsRepeat(t *testing.T) {
	recorded, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"suite-regular", "launch-storm"} {
		def := findWorkload(name)
		inst, err := def.build(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		var digests [2]string
		for i := range digests {
			out, err := inst.pass(nil)
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 || out.ops == 0 || len(out.results) != out.launches {
				t.Fatalf("%s: %d of %d operations failed, %d results for %d launches: %v", name, out.failed, out.ops, len(out.results), out.launches, out.errs)
			}
			digests[i] = out.digest()
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: two passes digest to %s and %s", name, digests[0], digests[1])
		}
		key := name
		if def.seeded {
			key += "@1"
		}
		if want, ok := recorded[key]; !ok || want != digests[0] {
			t.Errorf("%s: digest %s, %s records %q", name, digests[0], digestsPath, want)
		}
	}
}
