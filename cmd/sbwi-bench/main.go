// Command sbwi-bench regenerates the paper's evaluation: every figure
// and table of §5. Simulations fan out across the host's cores through
// the device engine's suite runner.
//
// Usage:
//
//	sbwi-bench                 # run everything, print text tables
//	sbwi-bench -exp fig7b      # one experiment
//	sbwi-bench -exp fig9 -csv  # CSV output
//	sbwi-bench -workers 4      # bound the simulation worker pool
//	sbwi-bench -v              # per-simulation progress on stderr
//
// For diagnosing simulator hot-path regressions without editing tests:
//
//	sbwi-bench -exp fig7b -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	sbwi "repro"
)

func main() {
	// run carries the real logic so its defers — in particular
	// pprof.StopCPUProfile — flush before os.Exit on the error path: a
	// profile of a failing run is exactly when the flag matters.
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sbwi-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sbwi-bench", flag.ExitOnError)
	exp := fs.String("exp", "all", "experiment: "+strings.Join(sbwi.ExperimentNames(), ", ")+", or all")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned text")
	workers := fs.Int("workers", 0, "host worker-pool bound (0 = GOMAXPROCS)")
	verbose := fs.Bool("v", false, "log each simulation to stderr")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the simulations to `file`")
	memprofile := fs.String("memprofile", "", "write a heap profile taken after the simulations to `file`")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	r := sbwi.NewExperiments()
	r.Workers = *workers
	if *verbose {
		r.Progress = os.Stderr
	}

	names := sbwi.ExperimentNames()
	if *exp != "all" {
		names = []string{*exp}
	}
	for _, name := range names {
		t, err := r.Run(name)
		if err != nil {
			return err
		}
		if *csv {
			fmt.Fprint(stdout, t.CSV())
		} else {
			fmt.Fprintln(stdout, t.Text())
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // materialize the retained-heap picture
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}
