// Command sbwi runs kernels on the simulated SM architectures.
//
// Usage:
//
//	sbwi list
//	sbwi run -kernel MatrixMul [-arch SBI+SWI] [-all] [-json] [-timeout 30s]
//	sbwi run -kernel BFS -sms 4 -partition
//	sbwi run -kernel Transpose -sms 4 -partition -l2 [-noc-bw 8] [-noc-lat 20]
//	sbwi run -kernel Histogram -streams 8 -workers 4
//	sbwi run -kernel Transpose -trace-replay [-json]
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
// (-l2/-noc-bw). With -streams N, Streams reports the
// concurrent-launch count and the stats are stream 0's (the tool
// verifies all N are bit-identical).
type runReport struct {
	Kernel  string `json:"kernel"`
	Arch    string `json:"arch"`
	SMs     int    `json:"sms"`
	Streams int    `json:"streams,omitempty"`

	// Replayed reports whether the statistics came from a trace replay
	// (-trace-replay, and the kernel passed the record-time race
	// analysis) rather than a full simulation. Always emitted, so sweep
	// tooling can tell the two apart.
	Replayed bool `json:"replayed"`

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
	streams := fs.Int("streams", 1, "submit the launch N times across N concurrent streams (asynchronous launch mode; stats must come out bit-identical)")
	l2 := fs.Bool("l2", false, "model the shared L2 + interconnect behind the L1s")
	traceReplay := fs.Bool("trace-replay", false, "record the run's per-thread trace, then replay it and return the replayed (bit-identical) statistics; kernels with timing-dependent functional behavior fall back to the full simulation")
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

	name := *kernel
	if name == "" {
		name = *file
	}

	if *nocBW < 0 {
		return fmt.Errorf("-noc-bw %g: port bandwidth must be positive (0 leaves it unset)", *nocBW)
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
	if *streams < 1 {
		return fmt.Errorf("-streams %d: need at least one stream", *streams)
	}
	if *traceReplay && *streams > 1 {
		return fmt.Errorf("-trace-replay runs record+replay on one launch; it cannot be combined with -streams %d", *streams)
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
		// makeLaunch builds a fresh launch per call: concurrent stream
		// submissions must not share a mutable global image.
		makeLaunch := func() (*sbwi.Launch, error) {
			switch {
			case *kernel != "":
				b, ok := sbwi.BenchmarkByName(*kernel)
				if !ok {
					return nil, fmt.Errorf("unknown kernel %q", *kernel)
				}
				return b.NewLaunch(a != sbwi.Baseline)
			case *file != "":
				src, err := os.ReadFile(*file)
				if err != nil {
					return nil, err
				}
				prog, err := sbwi.Assemble(*file, string(src))
				if err != nil {
					return nil, err
				}
				p := prog
				if a != sbwi.Baseline {
					if p, err = sbwi.ThreadFrontier(prog); err != nil {
						return nil, err
					}
				}
				if max := len(sbwi.Launch{}.Params); len(params) > max {
					return nil, fmt.Errorf("%d -param flags exceed the ISA's %d kernel parameters (%%p0..%%p%d)",
						len(params), max, max-1)
				}
				return sbwi.NewLaunch(p, *grid, *block, make([]byte, *globalBytes), params...), nil
			default:
				return nil, fmt.Errorf("need -kernel or -file")
			}
		}
		var res *sbwi.Result
		if *traceReplay {
			var l *sbwi.Launch
			if l, err = makeLaunch(); err == nil {
				res, err = dev.RunTraceReplay(context.Background(), l)
			}
		} else {
			res, err = runStreams(dev, makeLaunch, *streams)
		}
		if err != nil {
			if *jsonOut {
				reports = append(reports, runReport{Kernel: name, Arch: a.String(), SMs: *sms, Error: err.Error()})
				continue
			}
			return err
		}
		stats := &res.Stats
		if *jsonOut {
			r := runReport{
				Kernel: name, Arch: a.String(), SMs: *sms, Replayed: res.Replayed,
				IPC: stats.IPC(), DeviceCycles: res.DeviceCycles(),
				L2HitRate:      stats.Mem.L2.HitRate(),
				NoCQueueCycles: stats.Mem.NoC.QueueCycles,
				NoCPorts:       res.NoCPorts,
				Stats:          stats,
			}
			if *streams > 1 {
				r.Streams = *streams
			}
			reports = append(reports, r)
			continue
		}
		fmt.Printf("%-10s %10d %8.2f %10d %10d %8d %8d\n",
			a, stats.Cycles, stats.IPC(), stats.IssueSlots, stats.SecondaryIssues,
			stats.Divergences, stats.Merges)
		if *streams > 1 {
			fmt.Printf("%-10s   %d concurrent streams, per-launch stats bit-identical\n", "", *streams)
		}
		if *traceReplay {
			mode := "full simulation (kernel outside the replay validity domain)"
			if res.Replayed {
				mode = "trace replay, bit-identical to the recording run"
			}
			fmt.Printf("%-10s   %s\n", "", mode)
		}
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

// runStreams simulates the launch: synchronously for n == 1, otherwise
// as n concurrent single-launch streams — each with its own fresh
// global image — verifying that every stream's statistics come out
// bit-identical (the stream API's determinism guarantee) and returning
// stream 0's result.
func runStreams(dev *sbwi.Device, makeLaunch func() (*sbwi.Launch, error), n int) (*sbwi.Result, error) {
	ctx := context.Background()
	if n == 1 {
		l, err := makeLaunch()
		if err != nil {
			return nil, err
		}
		return dev.Run(ctx, l)
	}
	pend := make([]*sbwi.Pending, n)
	for i := range pend {
		l, err := makeLaunch()
		if err != nil {
			return nil, err
		}
		pend[i] = dev.NewStream().Launch(ctx, l)
	}
	if err := dev.Synchronize(ctx); err != nil {
		return nil, err
	}
	first, err := pend[0].Wait()
	if err != nil {
		return nil, err
	}
	for i := 1; i < n; i++ {
		res, err := pend[i].Wait()
		if err != nil {
			return nil, fmt.Errorf("stream %d: %w", i, err)
		}
		if res.Stats != first.Stats {
			return nil, fmt.Errorf("stream %d produced different statistics than stream 0 — determinism violation", i)
		}
	}
	return first, nil
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
