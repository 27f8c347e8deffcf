// Command benchjson runs `go test -bench` and distills the output into
// a machine-readable JSON baseline: median ns/op, B/op and allocs/op
// per benchmark. The bench CI job uses it to write BENCH_<PR>.json
// files at the repository root, so every PR leaves a perf trajectory
// point the next one can be compared against (benchstat-style, but
// dependency-free and diffable in review).
//
// With -compare the freshly measured medians are additionally checked
// against a checked-in baseline: any benchmark regressing by more than
// -max-regress percent in ns/op fails the run with a non-zero exit, so
// the bench CI workflow catches hot-path regressions instead of just
// archiving them. Benchmarks present on only one side are reported but
// never fail the comparison (axes come and go across PRs).
//
// Baselines record the host they were measured on (CPU count and
// GOMAXPROCS). When the comparing host's core count differs from the
// baseline's, the worker-scaling axes — benchmarks whose names contain
// "parallel" — are skipped with a warning instead of gated: their
// ns/op measures how the worker pool maps onto the host's cores, so a
// 1-core baseline read on an 8-core runner would flag a phantom
// regression (or mask a real one) on every parallel axis.
//
// Usage:
//
//	go run ./cmd/benchjson -bench SuiteRunner -count 6 -o BENCH_PR14.json .
//	go run ./cmd/benchjson -bench SuiteRunner -compare BENCH_PR14.json -max-regress 10 .
//	go run ./cmd/benchjson -bench CycleLoop ./internal/sm
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark's summarized result.
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Samples     int     `json:"samples"`
}

// Report is the file layout of BENCH_*.json. NumCPU and GOMAXPROCS
// pin the host the numbers were measured on; -compare uses them to
// decide whether worker-scaling axes are comparable at all (zero in a
// baseline means a pre-PR7 file recorded before the fields existed,
// treated as an unknown — and therefore mismatched — host).
type Report struct {
	GoVersion  string           `json:"go_version"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	NumCPU     int              `json:"num_cpu,omitempty"`
	GOMAXPROCS int              `json:"gomaxprocs,omitempty"`
	Bench      string           `json:"bench"`
	Count      int              `json:"count"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// benchLine matches `go test -bench -benchmem` result rows, e.g.
// "BenchmarkSuiteRunner/serial-seed-8  2  73 ns/op  17 B/op  21 allocs/op".
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:.*?\s([\d.]+) B/op\s+([\d.]+) allocs/op)?`)

func main() {
	bench := flag.String("bench", ".", "benchmark regexp passed to go test -bench")
	count := flag.Int("count", 6, "go test -count (median is reported)")
	out := flag.String("o", "", "output JSON path (default stdout)")
	compare := flag.String("compare", "", "baseline JSON to compare the measured medians against")
	maxRegress := flag.Float64("max-regress", 10, "fail when any common benchmark's ns/op regresses by more than this percent (with -compare)")
	flag.Parse()
	pkgs := flag.Args()
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}

	args := append([]string{
		"test", "-run", "^$", "-bench", *bench, "-benchmem",
		"-count", strconv.Itoa(*count),
	}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: go %v: %v\n", args, err)
		os.Exit(1)
	}

	samples := map[string][][3]float64{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, _ := strconv.ParseFloat(m[2], 64)
		var bpo, apo float64
		if m[3] != "" {
			bpo, _ = strconv.ParseFloat(m[3], 64)
			apo, _ = strconv.ParseFloat(m[4], 64)
		}
		samples[m[1]] = append(samples[m[1]], [3]float64{ns, bpo, apo})
	}
	if len(samples) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results matched; raw output follows")
		os.Stderr.Write(raw)
		os.Exit(1)
	}

	rep := Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Bench:      *bench,
		Count:      *count,
		Benchmarks: make(map[string]Entry, len(samples)),
	}
	for name, runs := range samples {
		rep.Benchmarks[name] = Entry{
			NsPerOp:     median(runs, 0),
			BytesPerOp:  median(runs, 1),
			AllocsPerOp: median(runs, 2),
			Samples:     len(runs),
		}
	}

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	if *compare != "" {
		if !compareBaseline(&rep, *compare, *maxRegress) {
			os.Exit(1)
		}
	}
}

// compareBaseline checks the measured report against a baseline file,
// printing one line per common benchmark, and reports whether every
// common benchmark stayed within maxRegress percent of its baseline
// ns/op.
func compareBaseline(rep *Report, path string, maxRegress float64) bool {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return false
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: parse %s: %v\n", path, err)
		return false
	}

	// Worker-scaling axes only compare across hosts with the same core
	// count: their ns/op is a property of the pool-to-core mapping, not
	// of the code alone. A baseline without the host fields (pre-PR7)
	// counts as an unknown, mismatched host.
	hostMatch := base.NumCPU == rep.NumCPU && base.GOMAXPROCS == rep.GOMAXPROCS
	if !hostMatch {
		fmt.Fprintf(os.Stderr,
			"benchjson: warning: baseline host (%d CPUs, GOMAXPROCS %d) differs from this host (%d, %d); skipping worker-scaling (\"parallel\") axes\n",
			base.NumCPU, base.GOMAXPROCS, rep.NumCPU, rep.GOMAXPROCS)
	}

	names := make([]string, 0, len(rep.Benchmarks))
	for name := range rep.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	ok := true
	fmt.Printf("compare against %s (max ns/op regression %.0f%%):\n", path, maxRegress)
	for _, name := range names {
		got := rep.Benchmarks[name]
		want, in := base.Benchmarks[name]
		if !in {
			fmt.Printf("  %-50s %12.0f ns/op  (new, no baseline)\n", name, got.NsPerOp)
			continue
		}
		if !hostMatch && strings.Contains(name, "parallel") {
			fmt.Printf("  %-50s %12.0f -> %12.0f ns/op  skipped (host core count differs)\n",
				name, want.NsPerOp, got.NsPerOp)
			continue
		}
		delta := 100 * (got.NsPerOp - want.NsPerOp) / want.NsPerOp
		verdict := "ok"
		if delta > maxRegress {
			verdict = "REGRESSION"
			ok = false
		}
		fmt.Printf("  %-50s %12.0f -> %12.0f ns/op  %+6.1f%%  %s\n",
			name, want.NsPerOp, got.NsPerOp, delta, verdict)
	}
	for name := range base.Benchmarks {
		if _, in := rep.Benchmarks[name]; !in {
			fmt.Printf("  %-50s (in baseline, not measured)\n", name)
		}
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "benchjson: ns/op regressed beyond %.0f%% against %s\n", maxRegress, path)
	}
	return ok
}

// median returns the median of one column across runs.
func median(runs [][3]float64, col int) float64 {
	vals := make([]float64, len(runs))
	for i, r := range runs {
		vals[i] = r[col]
	}
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}
