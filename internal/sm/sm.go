package sm

import (
	"context"
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/reconv"
	"repro/internal/replay"
	"repro/internal/sched"
)

// SM is one simulated Streaming Multiprocessor mid-run. It is a
// reset-able shell: Runner.Reset — the only code that initialises one —
// re-arms every component in place, so a finished SM hands its storage
// (register files, L1 tags, scoreboard tables, block records) to the
// next run while behaving exactly like a newly built one.
type SM struct {
	cfg    Config
	launch *exec.Launch
	prog   *isa.Program
	hier   mem.Hierarchy
	sb     sched.Scoreboard
	lookup sched.Lookup
	rng    sched.XorShift64
	units  units

	// warps are the run's warp contexts: a prefix of ctxs, every context
	// the shell has built.
	warps   []*warp
	ctxs    []*warp
	blocks  []*block
	nextCTA int
	ctaEnd  int
	now     int64

	// freeBlocks holds the records of retired blocks, shared-memory
	// image included, for startBlock to reuse.
	freeBlocks []*block

	// freeWarps counts warp contexts without a block and finished counts
	// resident blocks whose last warp completed; both change only in
	// startBlock, retireBlocks and refreshWarp, and let the per-step
	// launch and retire sweeps return before scanning anything.
	warpsPerBlock int
	freeWarps     int
	finished      int

	// Incrementally maintained scheduler state (see schedfast.go):
	// readySet holds exactly the warps the per-cycle rescan would probe
	// past its pre-scoreboard checks, slotOf their primary front-end
	// slot and cands their issue-candidate record. All three are
	// refreshed at the events that change them — issue, barrier release,
	// block launch and retire — instead of being re-derived from every
	// warp context each cycle. An event marks the warp stale; the next
	// cycle's fill refills the stale records before the walk and files
	// each warp by its record: an awake one, clear on the scoreboard, in
	// its unit's list of the oldest-first index, a sleeper — owed the
	// stall ticks of every cycle until its wake cycle, settled when it
	// wakes — on the calendar (idx). poolBit is 1 on the Baseline, whose
	// pools are the warp ids' parity, and 0 elsewhere. madSleepers and
	// structSleepers are the sleepers whose candidate needs the MAD unit
	// and whose stall is structural: the SWI searches count sleepers'
	// probes from them, never visiting one unless a MAD primary's lane
	// filter may skip it.
	readySet       warpBits
	stale          warpBits
	slotOf         []int8
	cands          []issueCand
	sleepers       warpBits
	madSleepers    warpBits
	structSleepers warpBits
	idx            index
	poolBit        int
	warpSets       warpBits // the block the five warp sets are cut from

	// SWI: per-buddy-set warp masks, derived from lookup and cut from
	// setMasks; empty on the other architectures.
	setBits  []warpBits
	setMasks warpBits

	// srcsOf caches each instruction's source-register list, indexed by
	// PC — static per program, recomputed by the seed on every probe.
	// The lists are sub-slices of srcFlat.
	srcsOf  [][]isa.Reg
	srcFlat []isa.Reg

	// Reusable scratch buffers: the steady-state issue path performs no
	// heap allocation (enforced by TestSteadyStateZeroAllocs).
	swiTies  []int // warp ids
	freeBuf  []*warp
	txnBuf   []uint32
	txnReady []int64

	// rec / rp wire the trace-replay engine (package replay): with rec,
	// this full simulation additionally streams per-thread branch
	// outcomes and memory addresses into a recording; with rp, the
	// functional layer is skipped entirely and those streams are read
	// back instead — the scheduler, scoreboard, reconvergence and
	// memory-timing machinery still run for real, which is what keeps
	// replayed Stats bit-identical. At most one of the two is non-nil.
	rec *replay.Sink
	rp  *replay.Session

	stats Stats
	trace *Trace
}

// Result is the outcome of one simulation.
type Result struct {
	Stats Stats
	Trace *Trace

	// Waves holds the per-wave statistics when a Device partitioned the
	// launch into CTA waves simulated on independent SM instances; it is
	// nil for a plain single-SM Run. Stats is the deterministic merge of
	// the wave entries (wave order) plus, when the device models the
	// shared memory system, the L2/NoC counters of the one shared L2 and
	// crossbar every wave accessed inline (Stats.Mem.L2 and
	// Stats.Mem.NoC, zero in every per-wave entry). Without the modeled
	// memory system, merged Stats are identical for any SM or worker
	// count; with it, the waves contend on one shared clock, so Stats
	// depend on the configured SM count (the physical packing) but never
	// on the host worker count.
	Waves []Stats

	// SMCycles is the per-SM busy-cycle total under the device's
	// round-robin wave assignment (wave j runs on SM j mod N). Unlike
	// Stats, it depends on the configured SM count: more SMs spread the
	// same waves wider — and when the device models the shared L2 and
	// interconnect, each wave's cycles already include the contention
	// its accesses met on the shared clock. Nil for a plain single-SM
	// Run.
	SMCycles []int64

	// NoCPorts holds the per-SM interconnect port counters when the
	// device models the shared memory system (port i belongs to SM i;
	// length 1 for an unpartitioned single-SM run). Taken live from the
	// crossbar the waves accessed, so the per-port split reflects the
	// device's wave-to-SM packing. Nil under the flat-latency DRAM
	// model.
	NoCPorts []noc.Stats

	// Replayed reports that the result was produced by the trace-replay
	// engine (device.WithTraceReplay) instead of a full simulation;
	// Stats are bit-identical either way, but a replayed run leaves the
	// launch's global memory untouched.
	Replayed bool
}

// DeviceCycles returns the modeled device wall-clock: the busiest SM's
// cycle total, or Stats.Cycles when the launch ran on a single SM.
func (r *Result) DeviceCycles() int64 {
	if len(r.SMCycles) == 0 {
		return r.Stats.Cycles
	}
	var m int64
	for _, c := range r.SMCycles {
		if c > m {
			m = c
		}
	}
	return m
}

// candidate is an issueable (warp, split) pair resolved by a scheduler.
// It is passed by pointer into scratch storage, never heap-allocated on
// the issue path.
type candidate struct {
	w    *warp
	slot int // hot-context slot for heap configs; 0 for the stack
	pc   int
	mask uint64
	lane uint64
	ins  *isa.Instruction
}

// Run simulates the launch to completion on an SM configured by cfg and
// returns the statistics. The launch's global memory is mutated in
// place; callers needing the initial image should use CloneGlobal.
func Run(cfg Config, l *exec.Launch) (*Result, error) {
	return RunRangeOpts(context.Background(), cfg, l, 0, l.GridDim, RunOpts{})
}

// ResidentCTAs returns how many CTAs of the launch are co-resident on
// one SM: the warp contexts divided by the warps one block needs. It is
// the wave size a Device uses to partition a grid across SM instances.
func ResidentCTAs(cfg Config, l *exec.Launch) int {
	warpsPerBlock := (l.BlockDim + cfg.WarpWidth - 1) / cfg.WarpWidth
	if warpsPerBlock <= 0 || warpsPerBlock > cfg.NumWarps {
		return 0
	}
	return cfg.NumWarps / warpsPerBlock
}

// RunOpts carries per-run wiring that is not part of the modeled
// micro-architecture (Config): how the SM's L1 talks to the rest of
// the device's memory system.
type RunOpts struct {
	// Lower, when non-nil, services the L1's miss fills and
	// write-through stores in place of the flat-latency DRAM port —
	// the device wires an interconnect port backed by the shared L2
	// here. The Lower is called from the simulation goroutine at the
	// cycle each transaction leaves the L1, so a shared Lower must only
	// ever see one access stream at a time — the device interleaves
	// concurrent waves onto a shared Lower through one serial driver
	// (see sm.Runner and package device).
	Lower mem.Lower

	// Record, when non-nil, streams this full simulation's per-thread
	// branch outcomes and memory addresses into a trace recording (one
	// sink per SM instance; see replay.Recorder). Functional execution
	// is unchanged.
	Record *replay.Sink

	// Replay, when non-nil, replaces functional execution with the
	// recorded streams: no operand decode, no ALU evaluation, no
	// load/store — global memory stays untouched — while all scheduling
	// and timing machinery runs for real. The run fails loudly if the
	// replayed execution diverges from the recording (the configuration
	// left the trace's validity domain). Mutually exclusive with
	// Record.
	Replay *replay.Session
}

// RunRangeOpts simulates the CTA sub-range [ctaStart, ctaEnd) of the
// launch on a newly built SM wired by opts: a Runner stepped to
// completion, with the context polled before the first step and about
// every 1k steps after (see Runner.Diagnose for how an abort is
// reported). The SM model is re-entrant: independent RunRangeOpts calls
// over disjoint sub-ranges of one launch may run concurrently as long
// as each operates on its own global-memory image (see the Launch
// write-sharing contract in package exec). Thread environments still
// see the full grid (%nctaid is l.GridDim), so functional behavior is
// position-independent.
func RunRangeOpts(ctx context.Context, cfg Config, l *exec.Launch, ctaStart, ctaEnd int, opts RunOpts) (*Result, error) {
	r, err := NewRunner(cfg, l, ctaStart, ctaEnd, opts)
	if err != nil {
		return nil, err
	}
	for steps := 0; ; steps++ {
		if steps&1023 == 0 {
			select {
			case <-ctx.Done():
				return nil, r.Diagnose(ctx)
			default:
			}
		}
		done, err := r.Step()
		if err != nil {
			return nil, err
		}
		if done {
			return r.Result(), nil
		}
	}
}

// Reset validates the configuration and launch and arms the Runner to
// simulate the CTA sub-range [ctaStart, ctaEnd), from whatever state it
// is in: never used (NewRunner), finished, or abandoned mid-run. Every
// component is re-initialised in place, keeping its storage when its
// own geometry is unchanged and reallocating otherwise — the warp
// contexts and their register files whenever they fit — so the run that
// follows — Stats, Trace, memory image — is identical to one on a newly
// built Runner, and a Result already returned never aliases anything
// Reset touches. An error leaves the Runner as it was.
func (r *Runner) Reset(cfg Config, l *exec.Launch, ctaStart, ctaEnd int, opts RunOpts) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := l.Validate(); err != nil {
		return err
	}
	if ctaStart < 0 || ctaEnd > l.GridDim || ctaStart >= ctaEnd {
		return fmt.Errorf("sm: %s: CTA range [%d, %d) outside grid of %d",
			l.Prog.Name, ctaStart, ctaEnd, l.GridDim)
	}
	warpsPerBlock := (l.BlockDim + cfg.WarpWidth - 1) / cfg.WarpWidth
	if warpsPerBlock > cfg.NumWarps {
		return fmt.Errorf("sm: block of %d threads needs %d warps, SM has %d",
			l.BlockDim, warpsPerBlock, cfg.NumWarps)
	}
	if !cfg.ThreadFrontier() {
		for pc := range l.Prog.Code {
			ins := &l.Prog.Code[pc]
			if ins.Conditional() && ins.RecPC < 0 {
				return fmt.Errorf("sm: %s: pc %d: stack architecture needs RecPC annotations (run cfg.AnnotateReconvergence)", l.Prog.Name, pc)
			}
		}
	}
	if opts.Record != nil && opts.Replay != nil {
		return fmt.Errorf("sm: %s: a run cannot both record and replay a trace", l.Prog.Name)
	}
	if opts.Record != nil && !opts.Record.Matches(l.GridDim, l.BlockDim) {
		return fmt.Errorf("sm: %s: trace recorder sized for a different launch geometry", l.Prog.Name)
	}
	if opts.Replay != nil && !opts.Replay.Matches(l.GridDim, l.BlockDim, ctaStart, ctaEnd) {
		return fmt.Errorf("sm: %s: replay session covers a different launch geometry or CTA range", l.Prog.Name)
	}
	s := &r.s
	newSets, err := s.lookup.Reset(cfg.NumWarps, cfg.Assoc)
	if err != nil {
		return err
	}
	swi := cfg.Arch == ArchSWI || cfg.Arch == ArchSBISWI
	if newSets || !swi {
		s.setBits = s.setBits[:0] // derived from the lookup; rebuilt below for SWI
	}

	r.max = cfg.MaxCycles
	if r.max <= 0 {
		r.max = defaultMaxCycles
	}

	// A warp count no larger than one the shell has hosted builds no
	// context, and each keeps its register file and reconvergence
	// storage; the per-warp arrays are sized to the contexts.
	if n, words := cfg.NumWarps, (cfg.NumWarps+63)/64; len(s.warps) != n {
		if len(s.ctxs) < n {
			for len(s.ctxs) < n {
				s.ctxs = append(s.ctxs, &warp{id: len(s.ctxs)})
			}
			s.warpSets = newWarpBits(5 * words) // all five sets from one allocation
			s.slotOf = ownLines[int8](n, 1)
			s.cands = make([]issueCand, n)
			s.swiTies = make([]int, 0, n)
			s.freeBuf = make([]*warp, 0, n)
		}
		s.warps = s.ctxs[:n]
		sets := s.warpSets
		s.readySet, s.sleepers = sets[:words:words], sets[words:2*words:2*words]
		s.madSleepers, s.structSleepers = sets[2*words:3*words:3*words], sets[3*words:4*words:4*words]
		s.stale = sets[4*words : 5*words : 5*words]
		s.slotOf, s.cands = s.slotOf[:n], s.cands[:n]
	}
	for _, w := range s.ctxs {
		// Dropping heap and stack keeps a context this run never uses out
		// of collectHeapStats, and a context beyond the prefix must hold
		// nothing of the launch its last block ran. A lane mapping depends
		// on the shuffle, the width and, under MirrorHalf, the warp count.
		w.block, w.heap, w.stack, w.env.Params = nil, nil, nil, nil
		w.lanes = cfg.Shuffle.Lanes(w.id, cfg.WarpWidth, cfg.NumWarps)
	}
	clear(s.readySet) // slotOf is rewritten by refreshWarp, and cands by fill, before a warp is read
	clear(s.stale)
	clear(s.sleepers)
	clear(s.madSleepers)
	clear(s.structSleepers)
	s.idx.reset(cfg.NumWarps)
	s.poolBit = cfg.pools() - 1
	if cap(s.txnBuf) < cfg.WarpWidth {
		s.txnBuf = make([]uint32, 0, cfg.WarpWidth)
		s.txnReady = make([]int64, 0, cfg.WarpWidth)
	}

	s.cfg, s.launch, s.prog = cfg, l, l.Prog
	s.hier.Reset(cfg.Mem)
	s.hier.SetLower(opts.Lower)
	s.sb.Reset(cfg.DepMode, cfg.NumWarps, cfg.ScoreboardEntries)
	s.rng = *sched.NewXorShift64(cfg.Seed)
	s.units.reset(&s.cfg)
	s.rec, s.rp = opts.Record, opts.Replay

	// Resident blocks of an abandoned run go back to the free list.
	s.freeBlocks = append(s.freeBlocks, s.blocks...)
	s.blocks = s.blocks[:0]
	s.nextCTA, s.ctaEnd, s.now = ctaStart, ctaEnd, 0
	s.warpsPerBlock, s.freeWarps, s.finished = warpsPerBlock, cfg.NumWarps, 0
	s.stats = Stats{}
	s.trace = nil
	if cfg.TraceCap > 0 {
		s.trace = &Trace{cap: cfg.TraceCap}
	}

	n := l.Prog.Len()
	if cap(s.srcsOf) < n {
		s.srcsOf = make([][]isa.Reg, n)
		s.srcFlat = make([]isa.Reg, 0, 3*n) // SrcRegs appends at most 3, so srcFlat never reallocates
	}
	s.srcsOf = s.srcsOf[:n]
	flat := s.srcFlat[:0]
	for pc := range s.srcsOf {
		start := len(flat)
		flat = l.Prog.At(pc).SrcRegs(flat)
		s.srcsOf[pc] = flat[start:len(flat):len(flat)]
	}

	if swi && len(s.setBits) == 0 {
		words := (cfg.NumWarps + 63) / 64
		n := s.lookup.NumSets() * words
		if cap(s.setMasks) < n {
			s.setMasks = newWarpBits(n) // read every cycle: no stranger's writes beside them
		}
		masks := s.setMasks[:n]
		clear(masks)
		for si := range s.lookup.NumSets() {
			m := masks[si*words : (si+1)*words : (si+1)*words]
			for _, wid := range s.lookup.SetWarps(si) {
				m.set(wid)
			}
			s.setBits = append(s.setBits, m)
		}
	}
	return nil
}

// finishReplay verifies, at completion of a replayed run, that every
// covered thread consumed its recorded streams exactly — the backstop
// against a timing configuration that silently left the trace's
// validity domain. No-op for normal runs.
func (s *SM) finishReplay() error {
	if s.rp == nil {
		return nil
	}
	if err := s.rp.Finish(); err != nil {
		return fmt.Errorf("sm: %s: %w", s.prog.Name, err)
	}
	return nil
}

// step advances the simulation by one front-end iteration: block
// retire/launch, barrier release, one scheduling cycle, and — when the
// cycle issued nothing — the idle-span fast-forward. It reports whether
// the sub-range has completed. Exposed inside the package so tests can
// drive and measure the hot loop directly.
//
//sbwi:hotpath
func (s *SM) step(maxCycles int64) (bool, error) {
	s.retireBlocks()
	s.launchBlocks()
	if s.done() {
		return true, nil
	}
	s.releaseBarriers()
	issued, err := s.cycle()
	if err != nil {
		return false, err
	}
	s.now++
	if s.now > maxCycles {
		return false, s.livelockErr(maxCycles)
	}
	if !issued {
		if err := s.fastForward(maxCycles); err != nil {
			return false, err
		}
	}
	return false, nil
}

func (s *SM) livelockErr(maxCycles int64) error {
	return &LivelockError{
		Prog:  s.prog.Name,
		Arch:  s.cfg.Arch,
		Limit: maxCycles,
		Cycle: s.now,
		State: s.dumpState(),
	}
}

// result finalizes and packages the run statistics, and lets go of
// everything the run borrowed — the launch and its memory image, the
// lower memory level, the trace streams — so a shell waiting for its
// next Reset keeps none of it alive.
func (s *SM) result() *Result {
	s.stats.Cycles = s.now
	s.stats.ScoreboardChecks = s.sb.Stats.Checks
	s.stats.ScoreboardStalls = s.sb.Stats.Stalls
	s.stats.StructuralStalls = s.sb.Stats.Structural
	s.stats.Mem = s.hier.Stats
	s.collectHeapStats()
	res := &Result{Stats: s.stats, Trace: s.trace}
	s.launch, s.prog, s.rec, s.rp, s.trace = nil, nil, nil, nil, nil
	s.hier.SetLower(nil)
	for _, w := range s.warps {
		w.env.Params = nil
	}
	return res
}

// collectHeapStats folds per-warp reconvergence statistics of the still
// resident warps into the run statistics (retired warps fold in
// retireBlocks).
func (s *SM) collectHeapStats() {
	for _, w := range s.warps {
		s.foldWarpStats(w)
	}
}

func (s *SM) foldWarpStats(w *warp) {
	if w.heap != nil {
		st := w.heap.Stats
		s.stats.Merges += st.Merges
		s.stats.DegradedInserts += st.DegradedInser
		s.stats.CCTOverflows += st.CCTOverflows
		if st.MaxSplits > s.stats.MaxSplits {
			s.stats.MaxSplits = st.MaxSplits
		}
		w.heap.Stats = reconv.HeapStats{}
	}
	if w.stack != nil {
		if d := w.stack.MaxDepth(); d > s.stats.MaxStackDepth {
			s.stats.MaxStackDepth = d
		}
	}
}

// done reports whether every CTA of the sub-range has been run to
// completion.
//
//sbwi:hotpath
func (s *SM) done() bool {
	return s.nextCTA >= s.ctaEnd && len(s.blocks) == 0
}

// dumpState renders a one-line-per-warp summary for livelock reports:
// where each warp-split stands and, for a warp the front-end would
// schedule, what its issue-candidate record says holds it back.
func (s *SM) dumpState() string {
	var out strings.Builder
	fmt.Fprintf(&out, "  cycle %d, next CTA %d of [., %d)\n", s.now, s.nextCTA, s.ctaEnd)
	for _, w := range s.warps {
		if w.block == nil {
			continue
		}
		fmt.Fprintf(&out, "  warp %d (cta %d) atBarrier=%v: ", w.id, w.block.cta, w.atBarrier)
		if w.heap != nil {
			for i := 0; i < reconv.HotContexts; i++ {
				if c := w.heap.Slot(i); c != nil {
					fmt.Fprintf(&out, "slot%d{pc=%d mask=%x wait=%d parked=%v} ",
						i, c.PC, c.Mask, c.WaitDiv, c.Parked)
				}
			}
			out.WriteString(w.heap.String())
		} else if pc, mask, ok := w.stack.Active(); ok {
			fmt.Fprintf(&out, "stack{pc=%d mask=%x}", pc, mask)
		}
		if s.readySet.has(w.id) {
			r := s.cands[w.id]
			if s.stale.has(w.id) {
				s.fillCand(w.id, &r) // what the next cycle's fill will find
			}
			out.WriteString(r.describe(s.now < r.wake))
		}
		out.WriteByte('\n')
	}
	return out.String()
}

// retireBlocks frees the warps of completed blocks.
//
//sbwi:hotpath
func (s *SM) retireBlocks() {
	if s.finished == 0 {
		return
	}
	out := s.blocks[:0]
	for _, b := range s.blocks {
		if b.live > 0 {
			out = append(out, b) //sbwi:alloc-ok compacts live blocks in place into s.blocks[:0]
			continue
		}
		for _, w := range b.warps {
			s.foldWarpStats(w)
			w.block = nil
			s.refreshWarp(w)
		}
		s.freeWarps += len(b.warps)
		s.stats.BlocksRun++
		s.freeBlocks = append(s.freeBlocks, b) //sbwi:alloc-ok recycles the record; capacity is bounded by the most blocks ever resident
	}
	s.blocks = out
	s.finished = 0
}

// launchBlocks assigns pending CTAs to free warp contexts.
//
//sbwi:hotpath
func (s *SM) launchBlocks() {
	for s.nextCTA < s.ctaEnd && s.freeWarps >= s.warpsPerBlock {
		// The lowest-numbered free contexts, in order: which contexts a CTA
		// lands on decides scheduling order and lane shuffles.
		free := s.freeBuf[:0]
		for _, w := range s.warps {
			if w.block == nil {
				free = append(free, w) //sbwi:alloc-ok fills s.freeBuf scratch sized to the warp contexts
				if len(free) == s.warpsPerBlock {
					break
				}
			}
		}
		s.startBlock(s.nextCTA, free)
		s.nextCTA++
	}
}

// startBlock initializes warp state for one CTA, in storage earlier
// blocks left behind — the block record and its shared-memory image, the
// warps' register files and reconvergence state — so only a
// geometry the SM has not hosted yet allocates. ws may be scratch; the
// block keeps its own copy. A replayed run skips the register file, the
// special-register environment and the shared-memory image: the
// functional layer never executes, so none of it would be read.
//
//sbwi:hotpath
func (s *SM) startBlock(cta int, ws []*warp) {
	var b *block
	if n := len(s.freeBlocks); n > 0 {
		b, s.freeBlocks = s.freeBlocks[n-1], s.freeBlocks[:n-1]
	} else {
		b = new(block) //sbwi:alloc-ok the SM's first block on this many resident blocks; recycled through freeBlocks from then on
	}
	shared := b.shared[:0]
	if s.rp == nil {
		if cap(shared) < s.prog.SharedMem {
			shared = make([]byte, s.prog.SharedMem) //sbwi:alloc-ok grows only for a program with a larger shared-memory image than the record has held
		}
		shared = shared[:s.prog.SharedMem]
		clear(shared)
	}
	*b = block{cta: cta, warps: append(b.warps[:0], ws...), shared: shared, live: len(ws)} //sbwi:alloc-ok grows only for a launch with more warps per block than the record has held
	s.freeWarps -= len(b.warps)
	for wi, w := range b.warps {
		w.block = b
		w.base = wi * s.cfg.WarpWidth
		// The block's threads fill warps in order, so a warp's valid lanes
		// are a prefix; a width of 64 shifts to 0 and yields every bit.
		w.valid = 1<<uint(min(s.cfg.WarpWidth, s.launch.BlockDim-w.base)) - 1
		w.atBarrier = false
		w.deadCounted = false
		w.lastIssue = -1
		if s.rp == nil {
			w.regs.Reset(s.cfg.WarpWidth)
			w.env = exec.WarpEnv{
				TidBase: uint32(w.base),
				NTid:    uint32(s.launch.BlockDim),
				Ctaid:   uint32(cta),
				NCta:    uint32(s.launch.GridDim),
				Params:  &s.launch.Params,
			}
		}
		if s.cfg.ThreadFrontier() {
			if w.heapStore == nil {
				w.heapStore = new(reconv.Heap) //sbwi:alloc-ok the context's first block under the heap model
			}
			w.heapStore.Reset(w.valid, reconv.ColdContexts)
			w.heap, w.stack = w.heapStore, nil
		} else {
			if w.stackStore == nil {
				w.stackStore = new(reconv.Stack) //sbwi:alloc-ok the context's first block under the stack model
			}
			w.stackStore.Reset(w.valid)
			w.heap, w.stack = nil, w.stackStore
		}
		s.refreshWarp(w)
	}
	s.blocks = append(s.blocks, b) //sbwi:alloc-ok grows only past the most blocks the SM has had resident
}

// releaseBarriers opens block barriers once every live warp arrived.
//
//sbwi:hotpath
func (s *SM) releaseBarriers() {
	for _, b := range s.blocks {
		if !b.barrierReady() {
			continue
		}
		for _, w := range b.warps {
			if w.done() || !w.atBarrier {
				continue
			}
			w.atBarrier = false
			if w.heap != nil {
				// A warp at the barrier holds every live thread in one split.
				s.advanceHeap(w, 0, w.heap.Slot(0).PC+1)
			} else {
				w.stack.Advance()
			}
			s.refreshWarp(w)
		}
		b.arrived = 0
		b.epoch++ // accesses after the release are barrier-ordered against those before
	}
}

// slotsMoved follows a heap mutation with the slot-transition update of
// the dependency-matrix scoreboard (§3.4); pre holds the warp's
// SlotMasks from before the mutation. Composing one transition per
// mutation is equivalent to the hardware's one matrix per cycle, and
// keeps the rows consistent with slot numbering for intra-cycle
// secondary scheduling.
//
//sbwi:hotpath
func (s *SM) slotsMoved(w *warp, pre [3]uint64) {
	if s.sb.Mode() == sched.DepMatrix {
		s.sb.Transition(w.id, sched.Transition(pre, w.heap.SlotMasks()))
	}
}

// advanceHeap moves the warp's hot split in slot to nextPC. An in-order
// advance leaves the slot masks as they were, and a transition between
// equal masks is the identity on every row a live entry can hold (a row
// has no bit on an empty slot), so only a move that re-laid the heap
// reaches the scoreboard.
//
//sbwi:hotpath
func (s *SM) advanceHeap(w *warp, slot, nextPC int) {
	if pre, relaid := w.heap.Advance(slot, nextPC, s.now); relaid {
		s.slotsMoved(w, pre)
	}
}

// cycle performs one scheduling cycle: the stale records are refilled
// and the due sleepers woken (fill), every pool issues a primary
// instruction, then the secondary slot (if the architecture has one)
// fills the gap per §3/§4. It reports whether anything issued — when
// nothing did, every scheduler-visible input is frozen until the next
// wake-up event and the caller may fast-forward.
//
//sbwi:hotpath
func (s *SM) cycle() (bool, error) {
	s.fill()
	var prim candidate
	if s.cfg.Arch == ArchBaseline {
		issued := false
		for pool := 0; pool < s.cfg.pools(); pool++ {
			if s.selectPrimary(pool, &prim) {
				if err := s.issue(&prim, false, provNone); err != nil {
					return issued, err
				}
				issued = true
			}
		}
		return issued, nil
	}

	if !s.selectPrimary(0, &prim) {
		// No primary: the SWI secondary scheduler substitutes itself (§4),
		// searching one buddy set selected round-robin. That search cannot
		// issue, and its probes are popcounts (substitute).
		if len(s.setBits) > 0 {
			s.substitute(int(s.now) % len(s.setBits))
		}
		return false, nil
	}

	// Snapshot the other hot split before the primary issue mutates the
	// heap: the hardware's two front-ends select from the same
	// cycle-start instruction-buffer state.
	pw := prim.w
	primPC, primMask, primLane, primIns := prim.pc, prim.mask, prim.lane, prim.ins
	var secPC int
	var secMask uint64
	haveSec := false
	if s.cfg.hotSlots() == 2 {
		if other := 1 - prim.slot; pw.heap.Eligible(other) {
			c2 := pw.heap.Slot(other)
			secPC, secMask, haveSec = c2.PC, c2.Mask, true
		}
	}

	if err := s.issue(&prim, false, provNone); err != nil {
		return true, err
	}
	if !s.cfg.hasSecondary() {
		return true, nil
	}

	var sec candidate
	// (a) SBI: the warp's own secondary split, if it survived the
	// primary's heap mutation un-merged.
	if haveSec {
		if s.sbiCandidate(pw, secPC, secMask, s.divergenceCapable(primIns), &sec) {
			return true, s.issue(&sec, true, provSBI)
		}
	}
	// (b) SWI: another warp from the buddy set.
	if s.cfg.Arch == ArchSWI || s.cfg.Arch == ArchSBISWI {
		if s.swiSecondary(s.lookup.SetOf(pw.id), primIns.Op.Unit(), primLane, &sec) {
			return true, s.issue(&sec, true, provSWI)
		}
	}
	// (c) Sequential fallback: next instruction of the primary split to
	// a distinct unit group.
	if s.cfg.Arch == ArchSBI || s.cfg.Arch == ArchSBISWI {
		if s.seqCandidate(pw, primIns, primPC, primMask, &sec) {
			return true, s.issue(&sec, true, provSeq)
		}
	}
	return true, nil
}

// prov is the provenance of a secondary issue, for statistics.
type prov uint8

const (
	provNone prov = iota
	provSBI
	provSWI
	provSeq
)

// primarySlot returns the hot slot the primary front-end follows for a
// warp: the minimal-PC context, falling through to the next one when it
// is architecturally suspended (parked at a partial barrier or waiting
// on a selective synchronization barrier). Only heap warps have a
// choice; refreshWarp asks for no other.
//
//sbwi:hotpath
func (s *SM) primarySlot(w *warp) int {
	if w.heap.Suspended(0) {
		return 1
	}
	return 0
}

// selectPrimary picks the least-recently-issued ready (warp, split) in
// the pool (oldest-first, §2) into out. pool is a parity filter for the
// baseline and 0 for single-pool architectures. Every awake warp of the
// pool is clear on the scoreboard, so its probe is one Check, and the
// oldest one whose unit can issue is the oldest of its unit lists'
// heads that can (schedfast.go); the sleepers' probes are settled when
// they wake, so scoreboard counters and tie-breaking draws match the
// per-cycle rescan exactly.
//
//sbwi:hotpath
func (s *SM) selectPrimary(pool int, out *candidate) bool {
	mask := ^uint64(0)
	if s.poolBit == 1 {
		mask = 0x5555555555555555 << uint(pool) // the warps of parity pool
	}
	for base, word := range s.readySet {
		s.sb.Stats.Checks += ones(word &^ s.sleepers[base] & mask)
	}
	x := &s.idx
	best, mad := int32(-1), x.end(int(isa.UnitMAD)+4*pool)
	// A free MAD group takes the head. Every group taken, the row is
	// shared by lanes: the oldest whose lanes fit.
	for id := x.next[mad]; id != mad; id = x.next[id] {
		if s.units.canIssue(isa.UnitMAD, s.cands[id].lane, s.now) {
			best = id
			break
		}
	}
	for u := isa.UnitSFU; u <= isa.UnitCTRL; u++ {
		end := x.end(int(u) + 4*pool)
		if id := x.next[end]; id != end && (best < 0 || x.before(id, best)) && s.units.canIssue(u, 0, s.now) {
			best = id
		}
	}
	if best < 0 {
		return false
	}
	s.pick(int(best), out)
	return true
}

// finishCandidate applies the scoreboard and unit checks to a split off
// the primary slot — the same-cycle SBI and sequential secondaries,
// probed at most once per cycle, which the per-warp record (schedfast.go)
// does not cover — filling out on success.
//
//sbwi:hotpath
func (s *SM) finishCandidate(w *warp, slot int, pc int, mask uint64, out *candidate) bool {
	ins := s.prog.At(pc)
	qnow := s.now - s.cfg.IssueDelay
	if s.sb.ReadyAt(w.id, ins, s.srcsOf[pc], slot, mask, qnow) > qnow {
		return false
	}
	lane := w.lanes.Mask(mask)
	if !s.units.canIssue(ins.Op.Unit(), lane, s.now) {
		return false
	}
	*out = candidate{w: w, slot: slot, pc: pc, mask: mask, lane: lane, ins: ins}
	return true
}

// divergenceCapable reports whether executing ins can create a new
// warp-split: a conditional branch, or a global load when DWS-style
// memory-divergence splitting is enabled. The HCT sorter accepts at
// most one new split per warp per cycle (§3.4), so two such
// instructions of one warp must not co-issue.
//
//sbwi:hotpath
func (s *SM) divergenceCapable(ins *isa.Instruction) bool {
	return ins.Conditional() || (s.cfg.SplitOnMemDivergence && ins.Op == isa.OpLdG)
}

// sbiCandidate re-locates the snapshotted secondary split after the
// primary issue. If it merged with the primary split (the primary
// advanced into its PC) co-issue is skipped: the merged warp-split
// issues whole next cycle. Any instruction class may issue from the
// second front-end — including the SYNC a waiting split must execute
// to evaluate its selective barrier — except that two
// divergence-capable instructions of one warp cannot share a cycle.
// The split found is the untouched secondary: every split the primary
// issue leaves behind has a mask disjoint from it or containing more,
// and a primary that arrived at the barrier held every live thread, so
// there was no secondary to snapshot.
//
//sbwi:hotpath
func (s *SM) sbiCandidate(w *warp, pc int, mask uint64, primDiverges bool, out *candidate) bool {
	slot := -1
	for i := 0; i < reconv.HotContexts; i++ {
		if c := w.heap.Slot(i); c != nil && c.PC == pc && c.Mask == mask {
			slot = i
			break
		}
	}
	if slot < 0 || !w.heap.Eligible(slot) {
		return false
	}
	if primDiverges && s.divergenceCapable(s.prog.At(pc)) {
		return false
	}
	return s.finishCandidate(w, slot, pc, mask, out)
}

// seqCandidate dual-issues the next sequential instruction of the
// just-issued primary split when it targets a different unit group and
// its dependencies (including on the primary instruction itself, whose
// scoreboard entry is already visible) allow. A non-control primary is
// never the last instruction (isa.Program.Validate ends every program
// in an unconditional bra or exit) and never a barrier arrival.
//
//sbwi:hotpath
func (s *SM) seqCandidate(w *warp, primIns *isa.Instruction, primPC int, primMask uint64, out *candidate) bool {
	if primIns.Op.Unit() == isa.UnitCTRL {
		return false
	}
	next := primPC + 1
	// Locate the split: it advanced to next with the same mask (if it
	// merged, was resorted away, or parked at the load under
	// memory-divergence splitting, skip).
	slot := -1
	for i := 0; i < reconv.HotContexts; i++ {
		if c := w.heap.Slot(i); c != nil && c.PC == next && c.Mask == primMask {
			slot = i
			break
		}
	}
	if slot < 0 || !w.heap.Eligible(slot) {
		return false
	}
	// The pair must target distinct unit groups; control instructions
	// occupy no unit so they always qualify (the primary is never
	// divergence-capable on this path, so a conditional branch is fine).
	ins := s.prog.At(next)
	if ins.Op.Unit() == primIns.Op.Unit() {
		return false
	}
	return s.finishCandidate(w, slot, next, primMask, out)
}

// swiSecondary searches buddy set setIdx, beside a primary issue, for
// the best-fitting ready instruction whose lane mask does not conflict
// with the primary's: disjoint masks when sharing the MAD row, any mask
// when targeting a free distinct unit (§4). Best fit maximizes occupied
// lanes; ties break pseudo-randomly. The walk visits the set's awake
// warps in ascending id — the order the seed's rescan used — so the tie
// list, and therefore the PRNG draw sequence, matches the original loop.
// Each is clear on the scoreboard, so its probe is a Check and the unit
// test. The primary's warp is stale after its issue, and so not among
// them. A sleeper's probe stalls by construction (its wake cycle is
// still ahead), so the set's sleepers are counted, not probed: one stall
// each, structural by their bit. Only a MAD sleeper beside a MAD primary
// is looked at, since the lane filter skips it unprobed when their lanes
// collide.
//
//sbwi:hotpath
func (s *SM) swiSecondary(setIdx int, primUnit isa.Unit, primLane uint64, out *candidate) bool {
	st := &s.sb.Stats
	madRow := primUnit == isa.UnitMAD
	ties := s.swiTies[:0]
	bestFit := -1
	for base, set := range s.setBits[setIdx] {
		asleep := set & s.sleepers[base]
		if madRow {
			for m := asleep & s.madSleepers[base]; m != 0; m &= m - 1 {
				if s.cands[base<<6|bits.TrailingZeros64(m)].lane&primLane != 0 {
					asleep &^= m & -m
				}
			}
		}
		st.Checks += ones(asleep)
		st.Stalls += ones(asleep)
		st.Structural += ones(asleep & s.structSleepers[base])
		for word := set & s.readySet[base] &^ (s.sleepers[base] | s.stale[base]); word != 0; word &= word - 1 {
			id := base<<6 | bits.TrailingZeros64(word)
			r := &s.cands[id]
			// The MAD-row lane-collision filter comes before the scoreboard
			// probe, as in hardware (and so before the counters tick).
			if madRow && r.unit == isa.UnitMAD && r.lane&primLane != 0 {
				continue
			}
			st.Checks++
			if !s.units.canIssue(r.unit, r.lane, s.now) {
				continue
			}
			switch fit := popcount(r.lane); {
			case fit > bestFit:
				ties, bestFit = append(ties[:0], id), fit //sbwi:alloc-ok reuses s.swiTies scratch
			case fit == bestFit:
				ties = append(ties, id) //sbwi:alloc-ok reuses s.swiTies scratch
			}
		}
	}
	s.swiTies = ties
	switch len(ties) {
	case 0:
		return false
	case 1:
		s.pick(ties[0], out)
	default:
		s.pick(ties[s.rng.Intn(len(ties))], out)
	}
	return true
}

// substitute is the SWI secondary scheduler's search of buddy set setIdx
// in a cycle that issued no primary. In this model it can never issue:
// the primary walk has just failed the ready test on every awake warp,
// at the same cycle against the same records and units, and a sleeper
// fails it by construction. It stays for the scoreboard probes it
// counts: a Check for each of the set's warps — an awake one's
// scoreboard is clear (wake <= now) — and a stall of its kind for each
// sleeper. stepCoherent's checkNoSubstitute pins that the set holds
// nothing that could issue.
//
//sbwi:hotpath
func (s *SM) substitute(setIdx int) {
	st := &s.sb.Stats
	for base, set := range s.setBits[setIdx] {
		st.Checks += ones(set & s.readySet[base])
		st.Stalls += ones(set & s.sleepers[base])
		st.Structural += ones(set & s.structSleepers[base])
	}
}

// issue commits a candidate: functional execution, timing bookkeeping,
// and control-state mutation. The warp's cached schedulability is
// refreshed afterwards — issuing is one of the events that change it.
//
//sbwi:hotpath
func (s *SM) issue(c *candidate, secondary bool, p prov) error {
	w, ins := c.w, c.ins
	active := popcount(c.mask)

	s.stats.IssueSlots++
	if secondary {
		s.stats.SecondaryIssues++
		switch p {
		case provSBI:
			s.stats.SBIPairs++
		case provSWI:
			s.stats.SWIPairs++
		case provSeq:
			s.stats.SeqPairs++
		}
	} else {
		s.stats.PrimaryIssues++
	}
	if s.trace != nil {
		s.trace.add(IssueEvent{
			Cycle: s.now, Warp: w.id, Slot: boolInt(secondary),
			PC: c.pc, Mask: c.mask, Lane: c.lane, Op: ins.Op, Unit: ins.Op.Unit(),
		})
	}
	s.markIssued(w, c.slot)

	var err error
	switch {
	case ins.Op == isa.OpSync:
		s.stats.SyncThreadInstrs += uint64(active)
		s.execSync(c)
	case ins.Op == isa.OpNop:
		s.advance(c, c.pc+1)
	case ins.Op == isa.OpExit:
		s.countInstr(ins, active)
		s.execExit(c)
	case ins.Op == isa.OpBar:
		s.countInstr(ins, active)
		err = s.execBar(c)
	case ins.Op == isa.OpBra:
		s.countInstr(ins, active)
		err = s.execBranch(c)
	case ins.Op.IsMemory():
		s.countInstr(ins, active)
		err = s.execMem(c)
	default:
		s.countInstr(ins, active)
		s.units.issue(ins.Op.Unit(), c.lane, s.now)
		s.execALU(c)
	}
	s.refreshWarp(w)
	return err
}

//sbwi:hotpath
func (s *SM) countInstr(ins *isa.Instruction, active int) {
	s.stats.ThreadInstrs += uint64(active)
	s.stats.UnitThreadInstrs[ins.Op.Unit()] += uint64(active)
}

// markIssued stamps the split's oldest-first age.
//
//sbwi:hotpath
func (s *SM) markIssued(w *warp, slot int) {
	if w.heap != nil {
		w.heap.Slot(slot).LastIssue = s.now
		return
	}
	w.lastIssue = s.now
}

// advance moves the candidate's split to nextPC.
//
//sbwi:hotpath
func (s *SM) advance(c *candidate, nextPC int) {
	if c.w.heap != nil {
		s.advanceHeap(c.w, c.slot, nextPC)
		return
	}
	if nextPC == c.pc+1 {
		c.w.stack.Advance()
	} else {
		c.w.stack.Jump(nextPC)
	}
}

// execALU evaluates a MAD- or SFU-class instruction for the active
// threads and schedules its writeback. A replayed run skips the
// evaluation — ALU results only feed later branch outcomes and
// addresses, which the trace already holds — and keeps the identical
// scoreboard and control bookkeeping.
//
//sbwi:hotpath
func (s *SM) execALU(c *candidate) {
	w, ins := c.w, c.ins
	if s.rp == nil {
		exec.EvalWarp(ins, &w.regs, &w.env, c.mask)
	}
	s.sb.Issue(w.id, ins, c.slot, c.mask, s.now+s.cfg.ExecLatency)
	s.advance(c, c.pc+1)
}

// gtidBase returns the warp's first global thread id — the index space
// of the trace-replay streams.
//
//sbwi:hotpath
func (s *SM) gtidBase(w *warp) int {
	return w.block.cta*s.launch.BlockDim + w.base
}

// replayDesync builds the error for a replayed execution that asked
// for more stream entries than the recording holds.
func (s *SM) replayDesync(pc, tid int) error {
	return fmt.Errorf("sm: %s: pc %d: replay stream exhausted for thread %d — execution diverged from the recording (configuration outside the trace's validity domain)",
		s.prog.Name, pc, tid)
}

// execBranch resolves a branch; a divergent outcome is the cycle's
// single warp-split creation event. Conditional outcomes come from the
// predicate evaluation, or — replaying — from the recorded per-thread
// outcome stream; recording logs each evaluated outcome.
//
//sbwi:hotpath
func (s *SM) execBranch(c *candidate) error {
	w, ins := c.w, c.ins
	if ins.SrcA == isa.RegNone {
		s.advance(c, ins.Target)
		return nil
	}
	var taken uint64
	if s.rp != nil {
		base := s.gtidBase(w)
		for m := c.mask; m != 0; m &= m - 1 {
			t := bits.TrailingZeros64(m)
			bit, ok := s.rp.Branch(base + t)
			if !ok {
				return s.replayDesync(c.pc, base+t)
			}
			if bit {
				taken |= 1 << uint(t)
			}
		}
	} else {
		taken = exec.BranchTakenWarp(ins, &w.regs, c.mask)
		if s.rec != nil {
			base := s.gtidBase(w)
			for m := c.mask; m != 0; m &= m - 1 {
				t := bits.TrailingZeros64(m)
				s.rec.Branch(base+t, taken>>uint(t)&1 == 1)
			}
		}
	}
	switch {
	case taken == c.mask:
		s.advance(c, ins.Target)
	case taken == 0:
		s.advance(c, c.pc+1)
	default:
		s.stats.Divergences++
		if w.heap != nil {
			pre := w.heap.SlotMasks()
			w.heap.Diverge(c.pc, ins.Target, c.pc+1, taken, s.now)
			s.slotsMoved(w, pre)
		} else {
			w.stack.Diverge(c.pc, ins.Target, ins.RecPC, taken)
		}
	}
	return nil
}

// execSync applies the selective synchronization barrier (§3.3).
//
//sbwi:hotpath
func (s *SM) execSync(c *candidate) {
	w := c.w
	if w.heap != nil && s.cfg.Constraints && w.heap.SyncBlockedAt(c.slot, c.ins.Target) {
		s.stats.SyncWaits++
		w.heap.Wait(c.slot, c.ins.Target)
		return
	}
	s.advance(c, c.pc+1)
}

// execExit retires the split's threads.
//
//sbwi:hotpath
func (s *SM) execExit(c *candidate) {
	if c.w.heap != nil {
		pre := c.w.heap.SlotMasks()
		c.w.heap.Exit(c.slot, s.now)
		s.slotsMoved(c.w, pre)
		return
	}
	c.w.stack.Exit(c.mask)
}

// execBar handles the block barrier: a full-warp split joins the block
// rendezvous; a partial split parks until reconvergence completes it
// (only possible under the heap model — the stack guarantees
// reconvergence before the barrier for structured code).
//
//sbwi:hotpath
func (s *SM) execBar(c *candidate) error {
	w := c.w
	s.stats.BarrierWaits++
	if w.heap != nil {
		if c.mask == w.heap.Alive() {
			w.atBarrier = true
			w.block.arrived++
			return nil
		}
		w.heap.Park(c.slot) // masks unchanged: no scoreboard transition
		return nil
	}
	if alive := w.stack.Alive(); c.mask != alive {
		return fmt.Errorf("sm: %s: pc %d: divergent barrier (mask %#x, alive %#x)", //sbwi:alloc-ok cold path: a divergent barrier aborts the run
			s.prog.Name, c.pc, c.mask, alive)
	}
	w.atBarrier = true
	w.block.arrived++
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
