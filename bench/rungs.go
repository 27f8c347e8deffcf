package main

import (
	"math/rand/v2"
	"runtime"
	"time"

	sbwi "repro"
	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/reconv"
	"repro/internal/replay"
	"repro/internal/sched"
	"repro/internal/sm"
)

// sink keeps the compiler from discarding a rung's results.
var sink uint64

// leafRungs times the exported entry points of the leaf packages on
// operand streams drawn from seed. No workload is involved: the numbers
// say what one call costs, the counters of a pass say how many calls a
// workload makes.
func leafRungs(m metricSet, seed uint64, workers int) error {
	rng := rand.New(rand.NewPCG(seed, 0x1eaf))
	if err := frontEndRungs(m); err != nil {
		return err
	}
	execRungs(m, rng)
	schedRungs(m, rng)
	reconvRungs(m, rng)
	memRungs(m, rng)
	replayRungs(m, rng)

	config := sm.Configure(sm.ArchSBISWI)
	m["fingerprint.config_ns"] = perOp(20000, func(n int) {
		for i := 0; i < n; i++ {
			sink ^= config.Fingerprint()
		}
	})
	var err error
	m["device.new_us"] = perOp(500, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			_, err = sbwi.NewDevice(sbwi.WithArch(sbwi.SBISWI), sbwi.WithWorkers(workers))
		}
	}) / 1e3
	return err
}

// frontEndRungs time assembly and CFG annotation over the whole suite:
// what a process pays once per kernel before its first launch.
func frontEndRungs(m metricSet) error {
	suite := kernels.All()
	var err error
	m["asm.assemble_us"] = perOp(len(suite), func(int) {
		for _, b := range suite {
			if _, e := asm.Assemble(b.Name, b.Source); e != nil {
				err = e
			}
		}
	}) / 1e3
	if err != nil {
		return err
	}
	// Annotation mutates the program, so every round needs fresh ones;
	// only the annotation is timed.
	best := 0.0
	for round := 0; round < 3; round++ {
		progs := make([]*isa.Program, len(suite))
		for i, b := range suite {
			if progs[i], err = asm.Assemble(b.Name, b.Source); err != nil {
				return err
			}
		}
		t0 := time.Now()
		for _, p := range progs {
			if err := cfg.AnnotateReconvergence(p); err != nil {
				return err
			}
			if _, err := cfg.InsertSyncs(p); err != nil {
				return err
			}
		}
		if d := float64(time.Since(t0).Microseconds()) / float64(len(suite)); round == 0 || d < best {
			best = d
		}
	}
	m["cfg.annotate_us"] = best
	return nil
}

// aluOps are the register-to-register operations EvalALU spends its
// time on in the suite kernels.
var aluOps = []isa.Opcode{
	isa.OpIAdd, isa.OpISub, isa.OpIMul, isa.OpIMad, isa.OpAnd, isa.OpXor, isa.OpShl, isa.OpShr,
	isa.OpISetp, isa.OpSelp, isa.OpMov, isa.OpFAdd, isa.OpFMul, isa.OpFMad, isa.OpI2F,
}

// randomALU draws a stream of ALU instructions over the low registers.
func randomALU(rng *rand.Rand, n int) []isa.Instruction {
	reg := func() isa.Reg { return isa.Reg(rng.IntN(16)) }
	ins := make([]isa.Instruction, n)
	for i := range ins {
		ins[i] = isa.Instruction{Op: aluOps[rng.IntN(len(aluOps))], Dst: reg(), SrcA: reg(), SrcB: reg(), SrcC: reg(), RecPC: -1}
	}
	return ins
}

func execRungs(m metricSet, rng *rand.Rand) {
	ins := randomALU(rng, 256)
	var regs exec.Regs
	for i := range regs {
		regs[i] = rng.Uint32()
	}
	var params [isa.NumParams]uint32
	env := exec.Env{Tid: 5, NTid: 64, Ctaid: 1, NCta: 4, Params: &params}
	m["exec.evalalu_ns"] = perOp(400000, func(n int) {
		for i := 0; i < n; i++ {
			in := &ins[i&255]
			regs[in.Dst] = exec.EvalALU(in, &regs, &env)
		}
	})
	sink ^= uint64(regs[0])

	// Wave partitioning as the device does it for a sweep kernel: split
	// the grid, give every wave its own copy of the image, let each
	// write its own region, fold the copies back.
	b, _ := kernels.ByName("Transpose")
	l, err := b.NewLaunch(true)
	if err != nil {
		return
	}
	config := sm.Configure(sm.ArchSBISWI)
	base := append([]byte(nil), l.Global...)
	m["exec.merge_waves_us"] = perOp(1, func(int) {
		waves := exec.PartitionWaves(l.GridDim, sm.ResidentCTAs(config, l))
		images := make([][]byte, len(waves))
		region := len(base) / len(waves)
		for i := range waves {
			img := l.CloneWithGlobal(base).Global
			for j := i * region; j < (i+1)*region; j += 4 {
				img[j]++
			}
			images[i] = img
		}
		if err := exec.MergeWaves(l.Global, base, images); err != nil {
			panic(err) // disjoint regions cannot conflict
		}
	}) / 1e3
}

func schedRungs(m metricSet, rng *rand.Rand) {
	const warps, perWarp = 16, 6
	ins := randomALU(rng, 256)
	srcs := make([][]isa.Reg, len(ins))
	for i := range ins {
		srcs[i] = ins[i].SrcRegs(nil)
	}
	// A scoreboard with every warp's table full and nothing retiring:
	// the state ReadyAt and Horizon scan on a stalled cycle.
	full := sched.NewScoreboard(sched.DepMatrix, warps, perWarp)
	for w := 0; w < warps; w++ {
		for e := 0; e < perWarp; e++ {
			full.Issue(w, &ins[rng.IntN(len(ins))], e%2, rng.Uint64(), 1<<40)
		}
	}
	m["sched.readyat_ns"] = perOp(400000, func(n int) {
		for i := 0; i < n; i++ {
			k := i & 255
			sink ^= uint64(full.ReadyAt(i&(warps-1), &ins[k], srcs[k], k&1, ^uint64(0), int64(i)))
		}
	})
	m["sched.horizon_ns"] = perOp(400000, func(n int) {
		for i := 0; i < n; i++ {
			k := i & 255
			hz, _, st, _ := full.Horizon(i&(warps-1), &ins[k], srcs[k], k&1, ^uint64(0), int64(i))
			sink ^= uint64(hz + st)
		}
	})
	// Issue, with the retirement that keeps the tables bounded: every
	// entry written here retires eight cycles later and InFlight prunes
	// it, as the issue walk does.
	live := sched.NewScoreboard(sched.DepMatrix, warps, perWarp)
	m["sched.issue_ns"] = perOp(400000, func(n int) {
		for i := 0; i < n; i++ {
			w, now := i&(warps-1), int64(i)
			live.Issue(w, &ins[i&255], i&1, ^uint64(0), now+8)
			sink ^= uint64(live.InFlight(w, now))
		}
	})
	lookup, err := sched.NewLookup(warps, sched.AssocFull)
	if err != nil {
		return
	}
	m["sched.lookup_ns"] = perOp(400000, func(n int) {
		for i := 0; i < n; i++ {
			sink ^= uint64(len(lookup.Candidates(i & (warps - 1))))
		}
	})
}

func reconvRungs(m metricSet, rng *rand.Rand) {
	const all = ^uint64(0)
	taken := make([]uint64, 256)
	for i := range taken {
		taken[i] = rng.Uint64() | 1 // never empty
		taken[i] &^= 1 << 63        // never everyone
	}
	// One divergence and the Advance that merges it back: the pair an
	// if-then costs a thread-frontier warp.
	m["reconv.heap_diverge_ns"] = perOp(200000, func(n int) {
		h := reconv.NewHeap(all, 8)
		for i := 0; i < n; i++ {
			now := int64(i)
			h.Diverge(0, 10, 1, taken[i&255], now)
			h.Advance(0, 10, now)
			h.Advance(0, 0, now)
		}
		sink ^= h.Alive()
	})
	m["reconv.heap_advance_ns"] = perOp(400000, func(n int) {
		h := reconv.NewHeap(all, 8)
		for i := 0; i < n; i++ {
			h.Advance(0, i&1023, int64(i))
		}
		sink ^= h.Alive()
	})
	// The baseline stack's version of the same if-then: push on the
	// branch, pop both sides at the reconvergence point.
	m["reconv.stack_ns"] = perOp(200000, func(n int) {
		s := reconv.NewStack(all)
		for i := 0; i < n; i++ {
			s.Jump(0)
			s.Diverge(0, 2, 3, taken[i&255])
			s.Advance() // taken side reaches 3: pop
			s.Advance() // fall-through 1 -> 2
			s.Advance() // reaches 3: pop to the reconvergence entry
		}
		sink ^= s.Alive()
	})
}

func memRungs(m metricSet, rng *rand.Rand) {
	config := mem.Default()
	block := uint32(config.BlockBytes)
	lines := config.L1Bytes / config.BlockBytes

	warm := mem.NewHierarchy(config)
	for i := 0; i < lines/2; i++ {
		warm.Load(int64(i)*400, uint32(i)*block)
	}
	t := int64(lines) * 400
	m["mem.l1_hit_ns"] = perOp(400000, func(n int) {
		for i := 0; i < n; i++ {
			t++
			sink ^= uint64(warm.Load(t, uint32(i%(lines/2))*block))
		}
	})
	// A stream four times the L1: every load misses and evicts.
	cold := mem.NewHierarchy(config)
	t = 0
	m["mem.l1_miss_ns"] = perOp(200000, func(n int) {
		for i := 0; i < n; i++ {
			t += 40
			sink ^= uint64(cold.Load(t, uint32(i%(4*lines))*block))
		}
	})
	store := mem.NewHierarchy(config)
	t = 0
	m["mem.l1_store_ns"] = perOp(400000, func(n int) {
		for i := 0; i < n; i++ {
			t += 16
			sink ^= uint64(store.Store(t, uint32(i%(4*lines))*block))
		}
	})

	// The L2 sees a seeded mix over four times its capacity.
	l2cfg := mem.DefaultL2()
	span := uint32(4 * l2cfg.Bytes / config.BlockBytes)
	addrs := make([]uint32, 4096)
	for i := range addrs {
		addrs[i] = uint32(rng.IntN(int(span))) * block
	}
	for _, r := range []struct {
		name  string
		store bool
	}{{"mem.l2_load_ns", false}, {"mem.l2_store_ns", true}} {
		l2 := mem.NewL2(l2cfg, config)
		t = 0
		m[r.name] = perOp(200000, func(n int) {
			for i := 0; i < n; i++ {
				t += 8
				sink ^= uint64(l2.Access(t, addrs[i&4095], r.store))
			}
		})
	}

	// Coalescing: half the warps touch consecutive words, half scatter.
	warpsAddrs := make([][]uint32, 64)
	for w := range warpsAddrs {
		a := make([]uint32, 64)
		base := uint32(rng.IntN(1<<20)) * 4
		for lane := range a {
			if w%2 == 0 {
				a[lane] = base + uint32(lane)*4
			} else {
				a[lane] = uint32(rng.IntN(1<<20)) * 4
			}
		}
		warpsAddrs[w] = a
	}
	dst := make([]uint32, 0, 64)
	m["mem.coalesce_ns"] = perOp(100000, func(n int) {
		for i := 0; i < n; i++ {
			dst = mem.Coalesce(dst[:0], warpsAddrs[i&63], ^uint64(0), 0, 64, block)
			sink ^= uint64(len(dst))
		}
	})

	xbar := noc.New(noc.Default(), 4)
	t = 0
	m["noc.send_ns"] = perOp(400000, func(n int) {
		for i := 0; i < n; i++ {
			t += 2
			sink ^= uint64(xbar.Send(i&3, t, config.BlockBytes))
		}
	})
}

// replayRungs time the two ends of a trace: the sinks a recording run
// writes to, and the session a replaying run reads from. The stream is
// one branch and one global load per event pair, per thread, as a
// memory-bound loop body produces them.
func replayRungs(m metricSet, rng *rand.Rand) {
	const grid, block, perThread = 4, 256, 64
	threads := grid * block
	taken := make([]bool, 1024)
	addrs := make([]uint32, 1024)
	for i := range taken {
		taken[i] = rng.IntN(2) == 0
		addrs[i] = uint32(rng.IntN(1<<20)) * 4
	}
	events := 2 * threads * perThread
	var trace *replay.Trace
	m["replay.record_ns_per_event"] = perOp(events, func(int) {
		rec := replay.NewRecorder(grid, block)
		k := rec.Sink()
		for e := 0; e < perThread; e++ {
			for tid := 0; tid < threads; tid++ {
				k.Branch(tid, taken[(tid+e)&1023])
				k.Mem(tid, tid/block, 0, addrs[(tid+e)&1023], true, false)
			}
		}
		trace = rec.Finalize()
	})
	m["replay.read_ns_per_event"] = perOp(events, func(int) {
		s, err := replay.NewSession(trace, 0, grid)
		if err != nil {
			panic(err) // the trace was recorded for this very geometry
		}
		for e := 0; e < perThread; e++ {
			for tid := 0; tid < threads; tid++ {
				b, _ := s.Branch(tid)
				a, _ := s.PeekAddr(tid)
				s.ConsumeAddr(tid)
				if b {
					sink ^= uint64(a)
				}
			}
		}
	})
}

// runnerRungs time the SM model's own entry points on one launch: what
// a launch costs before its first cycle (NewRunner), what one front-end
// iteration costs (Step), and what a whole run allocates.
func runnerRungs(m metricSet, launch func() (*exec.Launch, error), arch sm.Arch) error {
	config := sm.Configure(arch)
	const runs = 50
	launches := make([]*exec.Launch, 3*runs)
	for i := range launches {
		var err error
		if launches[i], err = launch(); err != nil {
			return err
		}
	}
	var err error
	next := 0
	m["sm.newrunner_us"] = perOp(runs, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			_, err = sm.NewRunner(config, launches[next%len(launches)], 0, launches[0].GridDim, sm.RunOpts{})
			next++
		}
	}) / 1e3
	if err != nil {
		return err
	}

	steps := 0
	var stepping time.Duration
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	for i := 0; i < runs; i++ {
		l := launches[i]
		r, err := sm.NewRunner(config, l, 0, l.GridDim, sm.RunOpts{})
		if err != nil {
			return err
		}
		t0 := time.Now()
		for done := false; !done; steps++ {
			if done, err = r.Step(); err != nil {
				return err
			}
		}
		stepping += time.Since(t0)
		sink ^= uint64(r.Result().Stats.Cycles)
	}
	runtime.ReadMemStats(&ms)
	m["sm.step_ns"] = float64(stepping.Nanoseconds()) / float64(steps)
	m["sm.allocs_per_run"] = float64(ms.Mallocs-mallocs0) / runs
	return nil
}
