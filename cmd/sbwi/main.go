// Command sbwi runs kernels on the simulated SM architectures.
//
// Usage:
//
//	sbwi list
//	sbwi run -kernel MatrixMul [-arch SBI+SWI] [-all] [-json] [-timeout 30s]
//	sbwi run -kernel BFS -sms 4 -partition
//	sbwi run -kernel Transpose -sms 4 -partition -l2 [-noc-bw 8] [-noc-lat 20]
//	sbwi run -file kernel.asm -grid 4 -block 256 -global 65536 [-param N]...
//	sbwi disasm -kernel BFS [-tf]
//
// The figure-2 pipeline comparison is the pipelineviz example:
// go run ./examples/pipelineviz.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	sbwi "repro"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = list()
	case "run":
		err = run(os.Args[2:])
	case "disasm":
		err = disasm(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbwi:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: sbwi <command> [flags]

commands:
  list    list the built-in benchmark suite
  run     simulate a built-in kernel or an .asm file
  disasm  print a kernel's assembled (optionally SYNC-instrumented) code`)
	os.Exit(2)
}

func list() error {
	fmt.Printf("%-22s %-9s %6s %6s\n", "kernel", "class", "grid", "block")
	for _, b := range sbwi.Benchmarks() {
		class := "irregular"
		if b.Regular {
			class = "regular"
		}
		fmt.Printf("%-22s %-9s %6d %6d\n", b.Name, class, b.Grid, b.Block)
	}
	return nil
}

func parseArch(s string) (sbwi.Arch, error) {
	for _, a := range sbwi.Architectures() {
		if strings.EqualFold(a.String(), s) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown architecture %q (have Baseline, SBI, SWI, SBI+SWI, Warp64)", s)
}

type uintList []uint32

func (p *uintList) String() string { return fmt.Sprint(*p) }
func (p *uintList) Set(s string) error {
	v, err := strconv.ParseUint(s, 0, 32)
	if err != nil {
		return err
	}
	*p = append(*p, uint32(v))
	return nil
}

// runReport is the -json output for one simulation. The L2/NoC
// convenience fields summarize Stats.Mem.L2 and Stats.Mem.NoC, and
// NoCPorts carries the per-SM port breakdown (Result.NoCPorts); all of
// them stay zero/absent unless the shared memory system is modeled
// (-l2/-noc-bw).
type runReport struct {
	Kernel string `json:"kernel"`
	Arch   string `json:"arch"`
	SMs    int    `json:"sms"`

	IPC            float64         `json:"ipc"`
	DeviceCycles   int64           `json:"deviceCycles"`
	L2HitRate      float64         `json:"l2HitRate"`
	NoCQueueCycles uint64          `json:"nocQueueCycles"`
	NoCPorts       []sbwi.NoCStats `json:"nocPorts,omitempty"`
	Stats          *sbwi.Stats     `json:"stats"`

	// Error reports a failed simulation (watchdog timeout, livelock,
	// cancellation); the numeric fields are zero and Stats is null. In
	// -json mode a failing architecture yields a report with this field
	// instead of aborting the whole run, so -all sweeps keep their
	// surviving columns.
	Error string `json:"error,omitempty"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	kernel := fs.String("kernel", "", "built-in benchmark name (see `sbwi list`)")
	file := fs.String("file", "", "assemble and run this .asm file instead")
	archName := fs.String("arch", "SBI+SWI", "architecture")
	all := fs.Bool("all", false, "run on every architecture")
	sms := fs.Int("sms", 1, "number of simulated SMs")
	partition := fs.Bool("partition", false, "partition the grid across the SMs (CTA waves)")
	workers := fs.Int("workers", 0, "host worker-pool bound (0 = GOMAXPROCS)")
	l2 := fs.Bool("l2", false, "model the shared L2 + interconnect behind the L1s")
	nocBW := fs.Float64("noc-bw", 0, "interconnect port bandwidth in bytes/cycle (>0 implies -l2; 0 leaves it unset)")
	nocLat := fs.Int64("noc-lat", -1, "interconnect traversal latency in cycles (>=0 implies -l2; -1 leaves it unset)")
	jsonOut := fs.Bool("json", false, "emit the merged statistics as JSON")
	timeout := fs.Duration("timeout", 0, "wall-clock watchdog per launch (e.g. 30s; 0 disables); an exceeded launch aborts with a partial-state diagnostic")
	grid := fs.Int("grid", 4, "grid dimension (with -file)")
	block := fs.Int("block", 256, "block dimension (with -file)")
	globalBytes := fs.Int("global", 1<<16, "global memory bytes (with -file)")
	var params uintList
	fs.Var(&params, "param", "kernel parameter (repeatable, with -file)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	archs := []sbwi.Arch{}
	if *all {
		archs = sbwi.Architectures()
	} else {
		a, err := parseArch(*archName)
		if err != nil {
			return err
		}
		archs = append(archs, a)
	}

	// One of bench and prog is set: each architecture builds its own
	// launch from it.
	var bench *sbwi.Benchmark
	var prog *sbwi.Program
	name := *kernel
	switch {
	case *kernel != "":
		b, ok := sbwi.BenchmarkByName(*kernel)
		if !ok {
			return fmt.Errorf("unknown kernel %q", *kernel)
		}
		bench = b
	case *file != "":
		name = *file
		if max := len(sbwi.Launch{}.Params); len(params) > max {
			return fmt.Errorf("%d -param flags exceed the ISA's %d kernel parameters (%%p0..%%p%d)",
				len(params), max, max-1)
		}
		src, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		if prog, err = sbwi.Assemble(*file, string(src)); err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -kernel or -file")
	}

	if !(*nocBW >= 0) || math.IsInf(*nocBW, 1) {
		return fmt.Errorf("-noc-bw %g: port bandwidth must be positive and finite (0 leaves it unset)", *nocBW)
	}
	if *nocLat < -1 {
		return fmt.Errorf("-noc-lat %d: traversal latency must be non-negative (-1 leaves it unset)", *nocLat)
	}
	memsys := *l2 || *nocBW > 0 || *nocLat >= 0
	if *globalBytes < 0 {
		return fmt.Errorf("-global %d: size must be non-negative", *globalBytes)
	}
	if *globalBytes > 1<<32 {
		return fmt.Errorf("-global %d: size exceeds the 4 GiB a 32-bit address reaches", *globalBytes)
	}
	var reports []runReport
	if !*jsonOut {
		fmt.Printf("%-10s %10s %8s %10s %10s %8s %8s\n",
			"arch", "cycles", "IPC", "issues", "secondary", "diverge", "merges")
	}
	for _, a := range archs {
		opts := []sbwi.Option{
			sbwi.WithArch(a),
			sbwi.WithSMs(*sms),
			sbwi.WithGridPartition(*partition),
			sbwi.WithWorkers(*workers),
			sbwi.WithLaunchTimeout(*timeout),
		}
		if memsys {
			ncfg := sbwi.DefaultNoCConfig()
			if *nocBW > 0 {
				ncfg.BytesPerCycle = *nocBW
			}
			if *nocLat >= 0 {
				ncfg.Latency = *nocLat
			}
			opts = append(opts, sbwi.WithL2(sbwi.DefaultL2Config()), sbwi.WithInterconnect(ncfg))
		}
		dev, err := sbwi.NewDevice(opts...)
		if err != nil {
			return err
		}
		var l *sbwi.Launch
		if bench != nil {
			l, err = bench.NewLaunch(a != sbwi.Baseline)
		} else {
			l, err = fileLaunch(prog, a, *grid, *block, *globalBytes, params)
		}
		if err != nil {
			return err
		}
		res, err := dev.Run(context.Background(), l)
		if err != nil {
			if *jsonOut {
				reports = append(reports, runReport{Kernel: name, Arch: a.String(), SMs: *sms, Error: err.Error()})
				continue
			}
			return err
		}
		stats := &res.Stats
		if *jsonOut {
			reports = append(reports, runReport{
				Kernel: name, Arch: a.String(), SMs: *sms,
				IPC: stats.IPC(), DeviceCycles: res.DeviceCycles(),
				L2HitRate:      stats.Mem.L2.HitRate(),
				NoCQueueCycles: stats.Mem.NoC.QueueCycles,
				NoCPorts:       res.NoCPorts,
				Stats:          stats,
			})
			continue
		}
		fmt.Printf("%-10s %10d %8.2f %10d %10d %8d %8d\n",
			a, stats.Cycles, stats.IPC(), stats.IssueSlots, stats.SecondaryIssues,
			stats.Divergences, stats.Merges)
		if memsys {
			l2s := &stats.Mem.L2
			fmt.Printf("%-10s   l2 hits %d misses %d (%.0f%%)  noc queue %d cycles (max %d)  device cycles %d\n",
				"", l2s.Hits, l2s.Misses, 100*l2s.HitRate(),
				stats.Mem.NoC.QueueCycles, stats.Mem.NoC.MaxQueueDelay, res.DeviceCycles())
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(reports)
	}
	return nil
}

// fileLaunch builds the -file program's launch for architecture a:
// the SYNC-instrumented thread-frontier variant off the baseline, over
// a zeroed global image.
func fileLaunch(prog *sbwi.Program, a sbwi.Arch, grid, block, globalBytes int, params []uint32) (*sbwi.Launch, error) {
	if a != sbwi.Baseline {
		var err error
		if prog, err = sbwi.ThreadFrontier(prog); err != nil {
			return nil, err
		}
	}
	return sbwi.NewLaunch(prog, grid, block, make([]byte, globalBytes), params...), nil
}

func disasm(args []string) error {
	fs := flag.NewFlagSet("disasm", flag.ExitOnError)
	kernel := fs.String("kernel", "", "built-in benchmark name")
	tf := fs.Bool("tf", false, "show the SYNC-instrumented thread-frontier variant")
	if err := fs.Parse(args); err != nil {
		return err
	}
	b, ok := sbwi.BenchmarkByName(*kernel)
	if !ok {
		return fmt.Errorf("unknown kernel %q", *kernel)
	}
	p, err := b.Program(*tf)
	if err != nil {
		return err
	}
	fmt.Print(p.Disassemble())
	return nil
}
