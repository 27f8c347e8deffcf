package sm

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/isa"
)

// assembleBench prepares the program variant an architecture needs,
// like assembleFor but usable from benchmarks.
func assembleBench(src string, a Arch) (*isa.Program, error) {
	p, err := asm.Assemble("bench", src)
	if err != nil {
		return nil, err
	}
	if err := cfg.AnnotateReconvergence(p); err != nil {
		return nil, err
	}
	if a == ArchBaseline {
		return p, nil
	}
	return cfg.InsertSyncs(p)
}

// BenchmarkCycleLoop measures the scheduling core itself — the
// per-cycle cost of the front-ends, scoreboard and reconvergence
// machinery — on the divergence-heavy compute loop used by the
// zero-allocation guard, on every architecture. The companion /mem
// variant is memory-latency-bound, so it measures the idle-cycle
// fast-forward rather than the issue path. Compare against main with:
//
//	go test ./internal/sm -bench CycleLoop -benchmem -count 6 | benchstat
func BenchmarkCycleLoop(b *testing.B) {
	archs := Architectures()
	for _, a := range archs {
		a := a
		b.Run(a.String(), func(b *testing.B) {
			cfg := Configure(a)
			p, err := assembleBench(benchmarkLoopSrc, a)
			if err != nil {
				b.Fatal(err)
			}
			var cycles int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := newLaunch(p, 4, 256, 4*256, 0)
				res, err := Run(cfg, l)
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Stats.Cycles
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
		})
	}
	for _, a := range archs {
		a := a
		b.Run(a.String()+"/mem", func(b *testing.B) {
			cfg := Configure(a)
			p, err := assembleBench(benchmarkMemSrc, a)
			if err != nil {
				b.Fatal(err)
			}
			var cycles int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := newLaunch(p, 4, 256, 4*256+65536, 0, 4*256*4)
				res, err := Run(cfg, l)
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Stats.Cycles
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
		})
	}
}

// benchmarkLoopSrc is divergentLoopSrc with a shorter trip count so one
// benchmark iteration stays in the microsecond range.
const benchmarkLoopSrc = `
	mov  r1, %tid
	mov  r3, 0
	mov  r4, 0
loop:
	and  r6, r4, 1
	isetp.eq r7, r6, 0
	bra  r7, even
	iadd r4, r4, 3
	bra  join
even:
	iadd r4, r4, 1
join:
	iadd r3, r3, 1
	isetp.lt r8, r3, 500
	bra  r8, loop
	mov  r9, %ctaid
	mov  r10, %ntid
	imad r11, r9, r10, r1
	shl  r12, r11, 2
	mov  r13, %p0
	iadd r13, r13, r12
	st.g [r13], r4
	exit
`

// benchmarkMemSrc is memIdleLoopSrc with a shorter trip count.
const benchmarkMemSrc = `
	mov  r1, %tid
	shl  r2, r1, 7
	mov  r3, 0
	mov  r4, 0
loop:
	imul r5, r3, 4099
	iadd r6, r2, r5
	and  r6, r6, 262143
	shr  r7, r6, 2
	shl  r6, r7, 2
	mov  r7, %p1
	iadd r7, r7, r6
	ld.g r8, [r7]
	iadd r4, r4, r8
	iadd r3, r3, 1
	isetp.lt r9, r3, 100
	bra  r9, loop
	mov  r10, %ctaid
	mov  r11, %ntid
	imad r12, r10, r11, r1
	shl  r13, r12, 2
	mov  r14, %p0
	iadd r14, r14, r13
	st.g [r14], r4
	exit
`
