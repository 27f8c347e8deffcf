package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of
// vals: the smallest sample with at least p of the samples at or below
// it. vals need not be sorted; it must not be empty.
func percentile(vals []float64, p float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// hiSample returns the highest percentile that still has ten samples
// beyond it, and falls back to the median while there are too few
// samples for any tail to be more than a single outlier.
func hiSample(vals []float64) float64 {
	if len(vals) < 21 {
		return percentile(vals, 0.5)
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[len(s)-11]
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// gcCPUSeconds is the CPU time the Go runtime has spent collecting.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// passSample is the host cost of one pass, measured around the pass
// and nothing else.
type passSample struct {
	wall, cpu float64 // seconds
	allocMB   float64
	mallocs   float64
}

// samples are the passes of one measured phase plus what the runtime
// did across it.
type samples struct {
	passes     []passSample
	outs       []*passOut
	gcCPUShare float64
	peakHeapMB float64
}

func (s *samples) column(f func(passSample) float64) []float64 {
	out := make([]float64, len(s.passes))
	for i, p := range s.passes {
		out[i] = f(p)
	}
	return out
}

func (s *samples) wall() []float64 { return s.column(func(p passSample) float64 { return p.wall }) }
func (s *samples) cpu() []float64  { return s.column(func(p passSample) float64 { return p.cpu }) }

// measure runs passes back to back (a closed loop of one client) until
// budget has elapsed and at least minPasses are in. A collection runs
// before every pass, outside the timed region, so that one pass never
// pays for the garbage of the one before.
func measure(pass func(*tracer) (*passOut, error), budget time.Duration, minPasses int) (*samples, error) {
	s := &samples{}
	start := time.Now()
	cpu0, gc0 := cpuSeconds(), gcCPUSeconds()
	var ms runtime.MemStats
	for len(s.passes) < minPasses || time.Since(start) < budget {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		alloc0, mallocs0 := ms.TotalAlloc, ms.Mallocs
		c0 := cpuSeconds()
		t0 := time.Now()
		out, err := pass(nil)
		wall := time.Since(t0).Seconds()
		c1 := cpuSeconds()
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms)
		s.passes = append(s.passes, passSample{
			wall:    wall,
			cpu:     c1 - c0,
			allocMB: float64(ms.TotalAlloc-alloc0) / 1e6,
			mallocs: float64(ms.Mallocs - mallocs0),
		})
		s.outs = append(s.outs, out)
		s.peakHeapMB = max(s.peakHeapMB, float64(ms.HeapSys)/1e6)
	}
	if cpu := cpuSeconds() - cpu0; cpu > 0 {
		s.gcCPUShare = (gcCPUSeconds() - gc0) / cpu
	}
	return s, nil
}

// perOp times fn(n), which performs n operations, three times and
// returns the fastest round's nanoseconds per operation: the rounds are
// identical computations, so the spread between them is host noise.
func perOp(n int, fn func(n int)) float64 {
	best := math.Inf(1)
	for round := 0; round < 3; round++ {
		t0 := time.Now()
		fn(n)
		best = min(best, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return best
}

// host describes the machine the numbers were taken on.
type host struct {
	NProc      int
	GOMAXPROCS int
	GoVersion  string
	CPUModel   string
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
