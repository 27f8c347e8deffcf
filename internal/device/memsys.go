package device

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/replay"
	"repro/internal/sm"
)

// The wave engine: the one way a launch is simulated.
//
// A launch becomes a wave plan — [0, GridDim) when it is unpartitioned
// or fits one SM, exec.PartitionWaves otherwise — grouped into
// contention domains: the SM slots that share one lower memory level.
// One driver, runDomain, executes a domain on one goroutine: it takes
// one run-queue slot and a spare (queue.go), re-arms the spare's
// sm.Runner shells — one per SM slot, built on the spare's first use —
// for the waves, and always advances the slot whose local clock maps to
// the earliest device time. Waves on one slot run back-to-back: each
// starts at the device time its predecessor ended. The shapes a launch
// can take are only data to that driver:
//
//   - whole grid: one wave, so one domain with one slot, simulated on
//     the launch's live memory image (no copy, no fold), cycle-exact
//     with sm.Run. With the memory system modeled (WithL2 /
//     WithInterconnect) the slot's L1 talks to a one-port crossbar.
//   - flat partitioning: under the flat-latency DRAM model nothing is
//     shared below the L1s, so every wave is its own single-slot domain
//     and the domains are claimed in wave order by at most the run
//     queue's Workers() goroutines. Wave j counts toward SM j mod N in
//     Result.SMCycles.
//   - memsys partitioning: every SM's L1 misses and write-through stores
//     cross its crossbar port (package noc) into the banked, MSHR-backed
//     shared L2 (mem.L2) and the single DRAM port behind it, inline — at
//     the cycle they leave the L1, the returned ready time flowing
//     straight back into scoreboard wake-up. All d.sms slots share that
//     hierarchy, so the whole plan is one domain: wave j runs on SM
//     j mod N and all waves contend on one device clock.
//
// Waves of a partitioned launch each run on a copy of the launch's
// image, which nothing writes until the commit, and are folded with
// exec.MergeWave, which asserts the write-sharing contract: a domain's
// first wave to finish becomes its merged image and every later one is
// folded into it as it finishes, its buffer going to the next wave on
// its slot. Flat partitioning's one-wave domains are folded after the
// last, in wave order. The merged image is committed to the launch's
// image once, after every domain has succeeded, so a failed or
// cancelled partitioned launch leaves the caller's image untouched. A
// replayed launch (tr) never touches memory, so it skips copies and
// folds.
//
// Determinism. A domain's driver is serial and its pick rule is a pure
// function of the configuration — minimum device time, lowest SM index
// on ties. Each slot's l2Port carries its wave's device-time offset, so
// the shared L2 and crossbar observe one globally ordered,
// non-decreasing access stream (the idle fast-forward inside a step
// emits no traffic, so single-step granularity cannot reorder accesses
// across SMs). Domains share nothing, and their results are combined in
// wave order. Hence every counter is bit-identical across host worker
// counts and repeat runs. The wave plan depends only on the launch and
// the SM configuration, so flat-partitioned Stats are also identical for
// every SM count; with the memory system modeled the SM count is an
// architectural parameter — how many waves share the hierarchy at once —
// and contention counters and timing legitimately depend on it.

// l2Port is the mem.Lower an SM's L1 talks to: one crossbar port in
// front of the shared L2. offset maps the driving SM's wave-local clock
// onto the shared device clock; the port translates outgoing cycles
// into device time and returned ready times back, so the SM never
// observes the shared clock directly.
type l2Port struct {
	xbar       *noc.Crossbar
	port       int
	l2         *mem.L2
	blockBytes int
	offset     int64

	// faults, when armed, fires the mem-access fault site on every
	// access. Access cannot return an error, so error-class faults are
	// raised as panics (faultinject.Plan.MustFire) and recovered at the
	// owning domain's boundary.
	faults *faultinject.Plan
}

//sbwi:hotpath
func (p *l2Port) Access(now int64, store bool, block uint32) int64 {
	if p.faults != nil {
		p.faults.MustFire(faultinject.SiteMemAccess)
	}
	deliver := p.xbar.Send(p.port, now+p.offset, p.blockBytes)
	return p.l2.Access(deliver, block, store) - p.offset
}

// smSlot is one SM's place in a contention domain: the SM shell that
// simulates its waves one after the other, the wave currently on it,
// the crossbar port its L1 uses under the modeled memory system, the
// device cycle at which that wave started (the sum of its predecessors'
// cycles on this SM), the buffer holding the copy of the launch's image
// the wave runs on (unused when it runs on the launch itself), and its
// replay cursors. A finished wave's buffer is the buffer of the slot's
// next wave, unless it became the domain's merged image. The slot lives
// in a spare (queue.go), so its shell, buffer and cursors serve the
// next domain that takes the spare.
type smSlot struct {
	run    *sm.Runner
	live   bool // a wave is simulating; false once the slot has none left
	port   l2Port
	wave   int   // index into the plan of the running wave
	offset int64 // device-time start of the running wave
	img    []byte
	sess   replay.Session
}

// waveRun is one wave's outcome; err is set on the first wave of a
// failed domain.
type waveRun struct {
	res *sm.Result
	err error
}

// launchRun is one launch's pass through the wave engine.
type launchRun struct {
	d      *Device
	l      *exec.Launch
	rec    *replay.Recorder
	tr     *replay.Trace
	cancel context.CancelFunc

	waves [][2]int // the wave plan: CTA ranges
	span  int      // waves per contention domain
	slots int      // SM slots per contention domain
	runs  []waveRun
	next  atomic.Int64 // the first wave of the next domain to claim

	// images holds each domain's merged image, awaiting the commit; nil
	// when the waves run on l itself.
	images [][]byte

	// out is a partitioned launch's Result, in which the memsys domain
	// leaves the L2 and crossbar counters; nil when the launch is one
	// wave, whose own Result is the launch's. Its Waves are allocated at
	// the commit, so a launch that fails pays for none of them.
	out *sm.Result
}

// run simulates one launch. partition is explicit because RunSuite
// routes heavy entries through the wave-partitioned shape under
// WithAutoPartition. With rec the simulation additionally records
// per-thread traces; with tr the functional layer is replaced by the
// recorded streams while every timing path runs exactly as in a full
// simulation, and the result says so (Replayed). At most one of rec/tr
// may be non-nil.
func (d *Device) run(ctx context.Context, l *exec.Launch, partition bool, rec *replay.Recorder, tr *replay.Trace) (*sm.Result, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if d.launchTimeout > 0 {
		// The watchdog bounds this launch end to end: queueing, admission
		// and simulation (guard.go).
		var stop func()
		ctx, stop = watchdogCtx(ctx, d.launchTimeout)
		defer stop()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// An over-subscribed block yields no plan; it runs whole so the SM
	// rejects it with its precise error.
	e := &launchRun{d: d, l: l, rec: rec, tr: tr, cancel: cancel, span: 1, slots: 1}
	e.waves = [][2]int{{0, l.GridDim}}
	if partition {
		if plan := exec.PartitionWaves(l.GridDim, sm.ResidentCTAs(d.cfg, l)); len(plan) > 1 {
			e.waves = plan
		}
	}
	n := len(e.waves)
	if n > 1 {
		if d.memsys {
			e.span, e.slots = n, d.sms
		}
		if tr == nil {
			e.images = make([][]byte, n/e.span)
		}
		e.out = &sm.Result{SMCycles: make([]int64, d.sms)}
	}
	e.runs = make([]waveRun, n)

	// The domains are claimed here and on at most Workers()-1 goroutines
	// beside.
	var wg sync.WaitGroup
	for w := 1; w < min(d.queue.Workers(), n/e.span); w++ {
		wg.Add(1)
		go guarded("CTA wave domain", func() {
			defer wg.Done()
			e.claim(ctx)
		})()
	}
	e.claim(ctx)
	wg.Wait()

	// Surface the first error in wave order so failures are
	// deterministic too; prefer a real simulation error over the
	// cancellations it triggered in sibling domains.
	var firstErr error
	for i := range e.runs {
		if err := e.runs[i].err; err != nil && (firstErr == nil || (isCtxErr(firstErr) && !isCtxErr(err))) {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	// The commit: flat partitioning's one-wave domains are folded here,
	// in wave order, and the merged image becomes the launch's.
	if e.images != nil {
		if err := d.fire(faultinject.SiteWaveMerge); err != nil {
			return nil, err
		}
		for _, img := range e.images[1:] {
			if err := e.fold(e.images[0], img); err != nil {
				return nil, err
			}
		}
		copy(l.Global, e.images[0])
	}

	out := cmp.Or(e.out, e.runs[0].res)
	if e.out != nil {
		// Wave clocks are not comparable; keep the first wave's trace.
		out.Trace, out.Waves = e.runs[0].res.Trace, make([]sm.Stats, len(e.runs))
		for i := range e.runs {
			st := &e.runs[i].res.Stats
			out.Waves[i] = *st
			out.Stats.Merge(st) // the waves' L2 and NoC counters are zero
			out.SMCycles[i%d.sms] += st.Cycles
		}
	}
	out.Replayed = tr != nil
	return out, nil
}

// fold folds a finished wave's image into its domain's merged image,
// against the launch's own, which still holds the pre-launch image.
func (e *launchRun) fold(merged, img []byte) error {
	if err := exec.MergeWave(merged, e.l.Global, img); err != nil {
		return fmt.Errorf("device: %s: %w", e.l.Prog.Name, err)
	}
	return nil
}

// claim runs the plan's contention domains, taking each in wave order
// from e.next, until none is left or one fails. Once the launch is
// cancelled or has failed every domain fails at once, so each claimer
// records at most one more error and stops, and a domain left
// unclaimed always has a failed one before it.
func (e *launchRun) claim(ctx context.Context) {
	for lo := int(e.next.Add(int64(e.span))) - e.span; lo < len(e.runs); lo = int(e.next.Add(int64(e.span))) - e.span {
		if e.runs[lo].err = e.runDomain(ctx, lo, lo+e.span); e.runs[lo].err != nil {
			return
		}
	}
}

// runDomain simulates the waves [lo, hi) of the plan on the domain's SM
// slots: slot s runs waves lo+s, lo+s+slots, ... back-to-back. A panic
// below it becomes a *PanicError, and any failure cancels the launch's
// other domains.
func (e *launchRun) runDomain(ctx context.Context, lo, hi int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = newPanicError(fmt.Sprintf("CTA waves %d-%d of %s", lo, hi-1, e.l.Prog.Name), v)
		}
		if err != nil {
			e.cancel()
		}
	}()
	// The domain is one goroutine however many SMs it interleaves, so it
	// occupies one run-queue slot. Its SM shells, wave buffers, replay
	// cursors, L2 and crossbar come from a spare, which goes back to the
	// store only from the clean return at the bottom: an error, an abort
	// or a panic drops it with the failed run.
	d := e.d
	if err := d.acquireSlot(ctx); err != nil {
		return err
	}
	defer d.queue.release()
	sp, ok := d.queue.spares.Take()
	if !ok {
		sp = new(spare)
	}
	for len(sp.slots) < e.slots {
		sp.slots = append(sp.slots, smSlot{run: new(sm.Runner)})
	}
	slots := sp.slots[:e.slots]
	if d.memsys {
		if sp.l2 == nil {
			sp.l2, sp.xbar = new(mem.L2), new(noc.Crossbar)
		}
		sp.l2.Reset(d.l2cfg, d.cfg.Mem)
		sp.xbar.Reset(d.noccfg, e.slots)
	}
	for i := range slots {
		sl := &slots[i]
		sl.live, sl.offset = false, 0
		if e.images == nil {
			// The waves run on the launch itself. Buffers ride a spare
			// only between launches whose waves copy the image, so
			// whole-grid and replayed launches keep none alive.
			sl.img = nil
		}
		sl.port = l2Port{xbar: sp.xbar, port: i, l2: sp.l2, blockBytes: d.cfg.Mem.BlockBytes, faults: d.faults}
		if lo+i < hi {
			if err := e.start(sl, lo+i); err != nil {
				return err
			}
		}
	}
	var merged []byte // the first wave image to finish, the later ones folded in
	for live := hi - lo; live > 0; live-- {
		sl, err := stepToWaveEnd(ctx, slots)
		if err != nil {
			return err
		}
		res := sl.run.Result()
		e.runs[sl.wave].res = res
		sl.offset += res.Stats.Cycles
		sl.live = false
		if e.images != nil { // the wave ran on a copy of the launch's image
			if merged == nil {
				merged, sl.img = sl.img, nil
			} else if err := e.fold(merged, sl.img); err != nil {
				return err
			}
		}
		if next := sl.wave + e.slots; next < hi {
			if err := e.start(sl, next); err != nil {
				return err
			}
		}
	}
	if e.images != nil {
		e.images[lo/e.span] = merged
	}
	if d.memsys {
		// The counters are read here, before the spare's next holder
		// resets its L2 and crossbar.
		out := cmp.Or(e.out, e.runs[lo].res)
		out.Stats.Mem.L2, out.Stats.Mem.NoC = sp.l2.Stats, sp.xbar.Stats()
		out.NoCPorts = make([]noc.Stats, e.slots)
		for i := range out.NoCPorts {
			out.NoCPorts[i] = sp.xbar.PortStats(i)
		}
	}
	for i := range slots {
		slots[i].sess.Detach() // an idle spare pins no trace
	}
	d.queue.spares.Give(sp, 1, runtime.GOMAXPROCS(0))
	return nil
}

// start puts wave w of the plan on the slot: the slot's SM re-armed
// over a private copy of the launch's image — in the slot's buffer,
// allocated when it has none — or over the launch itself when the waves
// run on it, wired to the slot's port and the trace-replay machinery —
// a fresh recorder sink when recording, the slot's cursors re-opened
// over the wave's threads when replaying.
func (e *launchRun) start(sl *smSlot, w int) error {
	wl, from, to := e.l, e.waves[w][0], e.waves[w][1]
	if e.images != nil {
		sl.img = append(sl.img[:0], e.l.Global...)
		c := *e.l
		c.Global = sl.img
		wl = &c
	}
	var opts sm.RunOpts
	if e.d.memsys {
		sl.port.offset = sl.offset
		opts.Lower = &sl.port
	}
	if e.rec != nil {
		opts.Record = e.rec.Sink()
	}
	if e.tr != nil {
		if err := sl.sess.Reset(e.tr, from, to); err != nil {
			return err
		}
		opts.Replay = &sl.sess
	}
	if err := sl.run.Reset(e.d.cfg, wl, from, to, opts); err != nil {
		return err
	}
	sl.live, sl.wave = true, w
	return nil
}

// stepToWaveEnd advances the domain until one of its waves completes
// and returns that wave's slot. Each step goes to the live slot whose
// local clock maps to the earliest device time; strict < makes ties
// resolve to the lowest SM index. The context is polled before the
// first step and about every 1k steps, through ctx.Err, which unlike
// ctx.Done allocates nothing; an abort is rendered through the slot
// about to step (sm.Runner.Diagnose), so a watchdog cancellation
// carries that SM's partial-state snapshot.
//
//sbwi:hotpath
func stepToWaveEnd(ctx context.Context, slots []smSlot) (*smSlot, error) {
	for steps := 0; ; steps++ {
		var best *smSlot
		var bestT int64
		for i := range slots {
			sl := &slots[i]
			if !sl.live {
				continue
			}
			if t := sl.offset + sl.run.Now(); best == nil || t < bestT {
				best, bestT = sl, t
			}
		}
		if steps&1023 == 0 && ctx.Err() != nil {
			return nil, best.run.Diagnose(ctx)
		}
		if done, err := best.run.Step(); err != nil || done {
			return best, err
		}
	}
}
