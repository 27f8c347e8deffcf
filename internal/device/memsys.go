package device

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/replay"
	"repro/internal/sm"
)

// The wave engine: the one way a launch is simulated.
//
// A launch becomes a wave plan — [0, GridDim) when it is unpartitioned
// or fits one SM, exec.PartitionWaves otherwise — run as one contention
// domain: the SM slots that share one lower memory level. One driver,
// runDomain, executes it on the launch's goroutine: it takes one
// run-queue slot and a spare (queue.go), re-arms the spare's sm.Runner
// shells — one per SM slot, built on the spare's first use — for the
// waves, and always advances the slot whose local clock maps to the
// earliest device time. Waves on one slot run back-to-back: each is
// re-armed cold and starts at the device time its predecessor ended.
// The shapes a launch can take are only data to that driver:
//
//   - whole grid: one wave on one slot, cycle-exact with sm.Run. With
//     the memory system modeled (WithL2 / WithInterconnect) the slot's L1
//     talks to a one-port crossbar.
//   - flat partitioning: under the flat-latency DRAM model nothing is
//     shared below the L1s, so the waves run back-to-back on one slot,
//     in wave order, each on a cold SM. Partitioning is a timing model —
//     waves on cold SMs, packed on N SMs — not host parallelism: wave j
//     counts toward SM j mod N in Result.SMCycles.
//   - memsys partitioning: every SM's L1 misses and write-through stores
//     cross its crossbar port (package noc) into the banked, MSHR-backed
//     shared L2 (mem.L2) and the single DRAM port behind it, inline — at
//     the cycle they leave the L1, the returned ready time flowing
//     straight back into scoreboard wake-up. All d.sms slots share that
//     hierarchy: wave j runs on SM j mod N and all waves contend on one
//     device clock.
//
// Every wave of a full simulation runs on its slot's buffer, refilled
// from the launch's image before the wave starts, and nothing writes the
// launch's image until the commit. The first wave to finish becomes the
// merged image, its slot taking the buffer its spare keeps for one, and
// every later one is folded into it with exec.MergeWave, which asserts
// the write-sharing contract, as it finishes (in wave order under flat
// partitioning), its buffer going to the next wave on its slot. The
// domain commits once, before its spare goes back, so the merged image
// goes back with it, and only once every wave has succeeded: a failed or
// cancelled launch of any shape leaves the caller's image untouched, and
// a successful one writes it once, at the commit. A suite entry (bench)
// brings no image of its own: its launch's image is the benchmark's
// shared pristine one, which the engine only reads, and its commit
// compares the merged image with the oracle instead of writing it back,
// so launch images are reused in one place, the spares. A replayed
// launch (tr) has no image and never touches memory, so it runs on the
// launch itself and skips the buffers, the fold and the commit.
//
// Determinism. The driver is serial and its pick rule is a pure
// function of the configuration — minimum device time, lowest SM index
// on ties. Each slot's l2Port carries its wave's device-time offset, so
// the shared L2 and crossbar observe one globally ordered,
// non-decreasing access stream (the idle fast-forward inside a step
// emits no traffic, so single-step granularity cannot reorder accesses
// across SMs). Nothing of the host reaches the driver, so every counter,
// and the error a failing launch returns, is identical across host
// worker counts and repeat runs. The wave plan depends only on the
// launch and the SM configuration, so flat-partitioned Stats are also
// identical for every SM count; with the memory system modeled the SM
// count is an architectural parameter — how many waves share the
// hierarchy at once — and contention counters and timing legitimately
// depend on it.

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
// the wave runs on and the launch header that points at it (both unused
// by a replay), its replay cursors, and the recorder sink its waves
// record into, held for the domain's life. A finished wave's buffer is
// the buffer of the slot's next wave, unless it became the merged
// image. The slot lives in a spare (queue.go), so its shell, buffer,
// header and cursors serve the next domain that takes the spare; its
// sink does not, nor does its header keep the launch's program.
type smSlot struct {
	run    *sm.Runner
	live   bool // a wave is simulating; false once the slot has none left
	port   l2Port
	wave   int   // index into the plan of the running wave
	offset int64 // device-time start of the running wave
	img    []byte
	launch exec.Launch // the launch, with img as its image
	sess   replay.Session
	sink   *replay.Sink
}

// launchRun is one launch's pass through the wave engine, allocated
// once per launch. It is 96 bytes, a size class of its own: one more
// word moves every launch into the 112-byte class.
type launchRun struct {
	d   *Device
	l   *exec.Launch
	rec *replay.Recorder
	tr  *replay.Trace

	// bench is a suite entry's benchmark: l.Global is its pristine
	// image, which the waves only read, and the commit compares the
	// final image with its oracle. nil when the launch's image is the
	// caller's.
	bench *kernels.Benchmark

	waves [][2]int     // the wave plan: CTA ranges
	runs  []*sm.Result // each wave's Result, in wave order

	// out is a partitioned launch's Result, in which the memsys domain
	// leaves the L2 and crossbar counters; nil when the launch is one
	// wave, whose own Result is the launch's. Its Waves are allocated
	// once every wave has succeeded, so a launch that fails pays for none
	// of them.
	out *sm.Result
}

// run simulates one launch. partition is explicit because RunSuite
// routes heavy entries through the wave-partitioned shape under
// WithAutoPartition. With rec the simulation additionally records
// per-thread traces; with tr the functional layer is replaced by the
// recorded streams while every timing path runs exactly as in a full
// simulation, and the result says so (Replayed). At most one of rec/tr
// may be non-nil. With bench, l.Global is that benchmark's pristine
// image and the run fails with errDiverged unless it ends in the
// oracle's.
func (d *Device) run(ctx context.Context, l *exec.Launch, partition bool, rec *replay.Recorder, tr *replay.Trace, bench *kernels.Benchmark) (*sm.Result, error) {
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

	// An over-subscribed block yields no plan; it runs whole so the SM
	// rejects it with its precise error.
	e := &launchRun{d: d, l: l, rec: rec, tr: tr, bench: bench}
	e.waves = [][2]int{{0, l.GridDim}}
	if partition {
		if plan := exec.PartitionWaves(l.GridDim, sm.ResidentCTAs(d.cfg, l)); len(plan) > 1 {
			e.waves = plan
		}
	}
	if len(e.waves) > 1 {
		e.out = &sm.Result{SMCycles: make([]int64, d.sms)}
	}
	e.runs = make([]*sm.Result, len(e.waves))
	if err := e.runDomain(ctx); err != nil {
		return nil, err
	}

	out := cmp.Or(e.out, e.runs[0])
	if e.out != nil {
		// Wave clocks are not comparable; keep the first wave's trace.
		out.Trace, out.Waves = e.runs[0].Trace, make([]sm.Stats, len(e.runs))
		for i, r := range e.runs {
			out.Waves[i] = r.Stats
			out.Stats.Merge(&r.Stats) // the waves' L2 and NoC counters are zero
			out.SMCycles[i%d.sms] += r.Stats.Cycles
		}
	}
	out.Replayed = tr != nil
	return out, nil
}

// fold folds a finished wave's image into the launch's merged image,
// against the launch's own, which still holds the pre-launch image.
func (e *launchRun) fold(merged, img []byte) error {
	if err := exec.MergeWave(merged, e.l.Global, img); err != nil {
		return fmt.Errorf("device: %s: %w", e.l.Prog.Name, err)
	}
	return nil
}

// errDiverged fails a suite entry whose final image is not its oracle's.
var errDiverged = errors.New("simulation diverged from reference")

// commit makes a full simulation's merged image the launch's, behind
// the wave-merge fault site: it is copied into l.Global, or compared
// with the oracle when l.Global is a suite entry's pristine image.
func (e *launchRun) commit(merged []byte) error {
	if err := e.d.fire(faultinject.SiteWaveMerge); err != nil {
		return err
	}
	if e.bench == nil {
		copy(e.l.Global, merged)
	} else if !bytes.Equal(merged, e.bench.Expected()) {
		return errDiverged
	}
	return nil
}

// runDomain simulates the plan on the domain's SM slots: slot s runs
// waves s, s+slots, ... back-to-back. A panic below it becomes a
// *PanicError.
func (e *launchRun) runDomain(ctx context.Context) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = newPanicError(fmt.Sprintf("CTA waves 0-%d of %s", len(e.waves)-1, e.l.Prog.Name), v)
		}
	}()
	// The domain is one goroutine however many SMs it interleaves, so it
	// occupies one run-queue slot. Its SM shells, image buffers, replay
	// cursors, L2 and crossbar come from a spare, which goes back to the
	// store only from the clean return at the bottom, after the commit:
	// an error, an abort, a panic or a suite entry that diverged from its
	// oracle drops it with the failed run.
	d := e.d
	if err := d.acquireSlot(ctx); err != nil {
		return err
	}
	defer d.queue.release()
	sp, ok := d.queue.spares.Take()
	if !ok {
		sp = new(spare)
	}
	n := 1 // SM slots: a partitioned memsys plan has the device's, any other one
	if d.memsys && len(e.waves) > 1 {
		n = d.sms
	}
	for len(sp.slots) < n {
		sp.slots = append(sp.slots, smSlot{run: new(sm.Runner)})
	}
	slots := sp.slots[:n]
	if d.memsys {
		if sp.l2 == nil {
			sp.l2, sp.xbar = new(mem.L2), new(noc.Crossbar)
		}
		sp.l2.Reset(d.l2cfg, d.cfg.Mem)
		sp.xbar.Reset(d.noccfg, n)
	}
	for i := range slots {
		sl := &slots[i]
		sl.live, sl.offset, sl.sink = false, 0, nil
		sl.port = l2Port{xbar: sp.xbar, port: i, l2: sp.l2, blockBytes: d.cfg.Mem.BlockBytes, faults: d.faults}
		if i < len(e.waves) {
			if err := e.start(sl, i); err != nil {
				return err
			}
		}
	}
	var merged []byte // the first wave image to finish, the later ones folded in
	for range e.waves {
		sl, err := stepToWaveEnd(ctx, slots)
		if err != nil {
			return err
		}
		res := sl.run.Result()
		e.runs[sl.wave] = res
		sl.offset += res.Stats.Cycles
		sl.live = false
		if e.tr == nil {
			if merged == nil {
				merged, sl.img, sp.img = sl.img, sp.img, nil
			} else if err := e.fold(merged, sl.img); err != nil {
				return err
			}
		}
		if next := sl.wave + n; next < len(e.waves) {
			if err := e.start(sl, next); err != nil {
				return err
			}
		}
	}
	if e.tr == nil { // the spare keeps the merged buffer
		if err, sp.img = e.commit(merged), merged; err != nil {
			return err
		}
	}
	if d.memsys {
		// The counters are read here, before the spare's next holder
		// resets its L2 and crossbar.
		out := cmp.Or(e.out, e.runs[0])
		out.Stats.Mem.L2, out.Stats.Mem.NoC = sp.l2.Stats, sp.xbar.Stats()
		out.NoCPorts = make([]noc.Stats, n)
		for i := range out.NoCPorts {
			out.NoCPorts[i] = sp.xbar.PortStats(i)
		}
	}
	for i := range slots {
		slots[i].sess.Detach()          // an idle spare pins no trace
		slots[i].sink = nil             // nor a recording
		slots[i].launch = exec.Launch{} // nor a program
	}
	d.queue.spares.Give(sp, 1, runtime.GOMAXPROCS(0))
	return nil
}

// start puts wave w of the plan on the slot: the slot's SM re-armed
// over the slot's launch header, the launch with a private copy of its
// image in the slot's buffer (allocated when the slot has none), or
// over the launch itself when it replays, wired to the slot's port and
// the trace-replay machinery: the slot's recorder sink, taken at its
// first wave, when recording, the slot's cursors re-opened over the
// wave's threads when replaying.
func (e *launchRun) start(sl *smSlot, w int) error {
	wl, from, to := e.l, e.waves[w][0], e.waves[w][1]
	if e.tr == nil {
		sl.img = append(sl.img[:0], e.l.Global...)
		sl.launch = *e.l
		sl.launch.Global = sl.img
		wl = &sl.launch
	}
	var opts sm.RunOpts
	if e.d.memsys {
		sl.port.offset = sl.offset
		opts.Lower = &sl.port
	}
	if e.rec != nil {
		if sl.sink == nil {
			sl.sink = e.rec.Sink()
		}
		opts.Record = sl.sink
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
