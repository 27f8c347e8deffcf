package experiments

import (
	"fmt"
	"strings"

	"repro/internal/kernels"
	"repro/internal/noc"
	"repro/internal/sm"
)

// memsysBenches are the suite kernels whose global-memory traffic is
// heavy enough for the shared L2 and interconnect to matter: their
// grids span several CTA waves and their miss streams approach the
// DRAM port's sustained bandwidth.
var memsysBenches = []string{"Transpose", "BFS", "Histogram"}

// memsysBandwidths are the studied per-port interconnect bandwidths in
// bytes/cycle, widest first.
var memsysBandwidths = []float64{32, 8, 2}

// MemoryHierarchy studies the modeled shared memory system: each
// bandwidth-bound benchmark runs partitioned across 4 SMs behind the
// shared L2, sweeping the interconnect port bandwidth. Columns report
// the modeled device wall-clock (DeviceCycles) per bandwidth, plus —
// at the widest setting — the L2 read hit rate, total NoC queueing,
// and the per-SM breakdown of that queueing (Result.NoCPorts: port i
// is SM i's injection port under the device-time packing), which shows
// how unevenly the waves' traffic loads the crossbar.
//
// The sweep is trace-replay routed: the points re-time the benchmark's
// thread-frontier recording, made by whichever sweep first ran the
// program, through the shared-clock interleaver — the NoC and L2
// parameters are timing-domain, so replayed statistics are
// bit-identical to full simulations (racy benchmarks like BFS fall
// back, with the reason logged once).
func (r *Runner) MemoryHierarchy() (*Table, error) {
	const sms = 4
	flat := point{cfg: sm.Configure(sm.ArchSBISWI), sms: sms, quiet: true}
	s := study{
		title: fmt.Sprintf("Shared L2 + interconnect: device cycles on %d SMs vs. NoC port bandwidth", sms),
		note:  "flat column: seed flat-latency DRAM model (no L2/NoC); hit rate and queue cycles (total and per-SM port) reported at the widest port",
		cols:  []string{"flat"},
		// Points: the flat model, then the bandwidths, widest first.
		points: []point{flat},
		row: func(res []*sm.Result) ([]Cell, []float64) {
			var cells []Cell
			for _, r := range res {
				cells = append(cells, num(float64(r.DeviceCycles())))
			}
			widest := res[1]
			ports := make([]string, len(widest.NoCPorts))
			for i, p := range widest.NoCPorts {
				ports[i] = fmt.Sprintf("%d", p.QueueCycles)
			}
			return append(cells,
				str(fmt.Sprintf("%.1f", 100*widest.Stats.Mem.L2.HitRate())),
				str(fmt.Sprintf("%d", widest.Stats.Mem.NoC.QueueCycles)),
				str(strings.Join(ports, "/"))), nil
		},
	}
	for _, name := range memsysBenches {
		b, ok := kernels.ByName(name)
		if !ok {
			return nil, fmt.Errorf("experiments: benchmark %s missing", name)
		}
		s.suite = append(s.suite, b)
	}
	for _, bw := range memsysBandwidths {
		p, ncfg := flat, noc.Default()
		ncfg.BytesPerCycle = bw
		p.noc = &ncfg
		s.cols = append(s.cols, fmt.Sprintf("%gB/c", bw))
		s.points = append(s.points, p)
	}
	s.cols = append(s.cols, "L2 hit%", "NoC queue", "queue/SM port")
	return r.table(s)
}
