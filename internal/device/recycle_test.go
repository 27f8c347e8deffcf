package device

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/kernels"
	"repro/internal/leakcheck"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/progen"
	"repro/internal/sm"
)

// A launch re-arms the SM shells of a spare from its queue's store.
// These tests hold the two halves of that contract at the device
// boundary: a recycled launch equals one on a device that has never run
// anything, and a launch that fails — any way a launch can — gives
// nothing back.

// launchOn builds b's launch in the program variant d's architecture
// runs.
func launchOn(t *testing.T, d *Device, b *kernels.Benchmark) *exec.Launch {
	t.Helper()
	l, err := b.NewLaunch(d.cfg.Arch != sm.ArchBaseline)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// privateQueue gives a device a run queue of workers slots over a
// spare store of its own, so a test can read what the device's launches
// give back, and a device that has run nothing re-arms nothing another
// device left: a true never-used baseline.
func privateQueue(workers int) Option {
	return WithRunQueue(newRunQueue(workers, new(spareStore)))
}

// storeSpares reports the spares on the store of d's queue, top first,
// and leaves the store as it was.
func storeSpares(d *Device) []*spare {
	var out []*spare
	for sp, ok := d.queue.spares.Take(); ok; sp, ok = d.queue.spares.Take() {
		out = append(out, sp)
	}
	for i := len(out) - 1; i >= 0; i-- {
		d.queue.spares.Give(out[i], 1, len(out))
	}
	return out
}

// TestRecycleAfterFailure: on a one-slot device with a store of its own
// a warm spare serves a launch that fails — livelock, cancellation,
// watchdog, panic, a memsys write conflict — and the store stays empty:
// the failed launch gives back no shell, L2 or crossbar. The good
// launch after it builds its SM, and its memory system, anew and
// computes exactly what a never-used device computes.
func TestRecycleAfterFailure(t *testing.T) {
	leakcheck.Check(t)
	for _, c := range []struct {
		name string
		opts []Option
		fail func(t *testing.T, d *Device) error
	}{
		{"livelock", []Option{tweaked(sm.ArchSBISWI, func(c *sm.Config) { c.MaxCycles = 20000 })}, func(t *testing.T, d *Device) error {
			_, err := d.Run(context.Background(), livelockLaunch(t))
			var le *sm.LivelockError
			if !errors.As(err, &le) {
				t.Fatalf("err %v, want *sm.LivelockError", err)
			}
			return err
		}},
		{"cancel", nil, func(t *testing.T, d *Device) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			p := d.NewStream().Launch(ctx, spinLaunch(t))
			for d.queue.busy() == 0 { // cancel mid-run, not in the queue
				time.Sleep(time.Millisecond)
			}
			cancel()
			_, err := p.Wait()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err %v, want context.Canceled", err)
			}
			return err
		}},
		{"watchdog", []Option{WithLaunchTimeout(200 * time.Millisecond)}, func(t *testing.T, d *Device) error {
			_, err := d.Run(context.Background(), spinLaunch(t))
			if !errors.Is(err, sm.ErrLaunchTimeout) {
				t.Fatalf("err %v, want the launch watchdog", err)
			}
			return err
		}},
		// The mem-access site only exists behind the modeled memory
		// system. The warm-up makes a handful of accesses, Transpose
		// thousands: hit 500 is mid-run.
		{"panic", []Option{WithL2(mem.DefaultL2()), WithFaultPlan(faultinject.NewPlan(1, faultinject.Spec{
			{Site: faultinject.SiteMemAccess, Kind: faultinject.KindPanic, Hits: []uint64{500}},
		}))}, func(t *testing.T, d *Device) error {
			_, err := d.Run(context.Background(), mustLaunch(t, "Transpose"))
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err %v, want *PanicError", err)
			}
			return err
		}},
		// A memsys domain folds each wave as it finishes, so the second
		// writer's wave fails the launch while the domain holds its slot.
		{"memsys-conflict", []Option{WithSMs(2), WithGridPartition(true), WithL2(mem.DefaultL2())}, func(t *testing.T, d *Device) error {
			_, err := d.Run(context.Background(), twoWaveLaunch(t, "conflict", conflictingStores))
			var wc *exec.WriteConflict
			if !errors.As(err, &wc) {
				t.Fatalf("err %v, want *exec.WriteConflict", err)
			}
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := slices.Concat([]Option{WithArch(sm.ArchSBISWI)}, c.opts)
			dev, err := New(slices.Concat(opts, []Option{privateQueue(1)})...)
			if err != nil {
				t.Fatal(err)
			}
			ks := progen.Kernels(2)
			if _, err := dev.Run(context.Background(), launchOn(t, dev, ks[0])); err != nil {
				t.Fatalf("warm-up: %v", err)
			}
			if sps := storeSpares(dev); len(sps) != 1 || sps[0].slots == nil || dev.memsys && sps[0].l2 == nil {
				t.Fatalf("a clean launch left %d spare(s) on its store: nothing is being recycled", len(sps))
			}
			if c.fail(t, dev) == nil {
				t.Fatal("the failing launch succeeded")
			}
			if sps := storeSpares(dev); len(sps) != 0 {
				t.Errorf("the failed launch gave %d spare(s) back to its store", len(sps))
			}

			l := launchOn(t, dev, ks[1])
			got, err := dev.Run(context.Background(), l)
			if err != nil {
				t.Fatalf("good launch after the failure: %v", err)
			}
			fresh, err := New(slices.Concat(opts, []Option{privateQueue(1)})...)
			if err != nil {
				t.Fatal(err)
			}
			fl := launchOn(t, fresh, ks[1])
			want, err := fresh.Run(context.Background(), fl)
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats != want.Stats || !bytes.Equal(l.Global, fl.Global) {
				t.Errorf("launch after the failure differs from a never-used device's\ngot  %+v\nwant %+v", got.Stats, want.Stats)
			}
		})
	}
}

// TestRecycleStreamsEqualSerial: 8 streams x 200 generated launches
// over three devices of different architecture and memory system that
// share one 4-slot run queue — so every shell keeps changing warp
// geometry, reconvergence model and lower level under concurrent use —
// each equal to the same launch on a never-used device. CI runs it with
// -race -count=10.
func TestRecycleStreamsEqualSerial(t *testing.T) {
	leakcheck.Check(t)
	const streams, perStream = 8, 200
	ks := progen.Kernels(48)
	variants := [][]Option{
		{WithArch(sm.ArchSBISWI)},
		{WithArch(sm.ArchBaseline)},
		{WithArch(sm.ArchSBI), WithL2(mem.DefaultL2())},
	}
	q := NewRunQueue(4)
	devs := make([]*Device, len(variants))
	want := make([][]sm.Stats, len(variants))
	images := make([][][]byte, len(variants))
	for v, opts := range variants {
		var err error
		if devs[v], err = New(slices.Concat(opts, []Option{WithRunQueue(q)})...); err != nil {
			t.Fatal(err)
		}
		want[v], images[v] = make([]sm.Stats, len(ks)), make([][]byte, len(ks))
		for i := range ks {
			fresh, err := New(slices.Concat(opts, []Option{privateQueue(1)})...)
			if err != nil {
				t.Fatal(err)
			}
			l := launchOn(t, fresh, ks[i])
			res, err := fresh.Run(context.Background(), l)
			if err != nil {
				t.Fatal(err)
			}
			want[v][i], images[v][i] = res.Stats, l.Global
		}
	}

	// Stream s belongs to device s mod 3; launches are dealt round-robin
	// over the streams, each stream's 200 in FIFO order.
	type issued struct {
		v, k int
		l    *exec.Launch
		p    *Pending
	}
	ss := make([]*Stream, streams)
	for s := range ss {
		ss[s] = devs[s%len(devs)].NewStream()
	}
	all := make([]issued, streams*perStream)
	for n := range all {
		s := n % streams
		v, k := s%len(devs), (n*7+s)%len(ks)
		l := launchOn(t, devs[v], ks[k])
		all[n] = issued{v, k, l, ss[s].Launch(context.Background(), l)}
	}
	for _, is := range all {
		res, err := is.p.Wait()
		if err != nil {
			t.Fatalf("kernel %d on device %d: %v", is.k, is.v, err)
		}
		if res.Stats != want[is.v][is.k] || !bytes.Equal(is.l.Global, images[is.v][is.k]) {
			t.Fatalf("kernel %d on device %d: recycled launch differs from a never-used device's\ngot  %+v\nwant %+v",
				is.k, is.v, res.Stats, want[is.v][is.k])
		}
	}
}

// TestRecycleShellKeepsNoLaunch: the shell a clean launch gives back to
// the store holds on to nothing of that launch — its memory image is
// collectable once the caller lets go, not only when the shell is next
// used — and neither does the shell after a launch of another warp
// count re-arms it: a 32-warp Baseline launch, then a 16-warp Warp64
// one on the same spare, which runs on a prefix of the contexts the
// first left behind.
func TestRecycleShellKeepsNoLaunch(t *testing.T) {
	q := newRunQueue(1, new(spareStore))
	var devs []*Device
	for _, a := range []sm.Arch{sm.ArchBaseline, sm.ArchWarp64} {
		dev, err := New(WithArch(a), WithRunQueue(q))
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, dev)
	}
	defer runtime.KeepAlive(devs) // the devices, their queue, its store and the shell outlive the launches
	freed := make([]chan struct{}, len(devs))
	for k, dev := range devs {
		freed[k] = make(chan struct{})
		func() {
			l := launchOn(t, dev, progen.Kernel(1, 3, 4, 256))
			runtime.SetFinalizer(l, func(*exec.Launch) { close(freed[k]) })
			if _, err := dev.Run(context.Background(), l); err != nil {
				t.Fatal(err)
			}
		}()
	}
	if sps := storeSpares(devs[0]); len(sps) != 1 || sps[0].slots == nil {
		t.Fatal("the launches gave no shell back to their store")
	}
	for k, dev := range devs {
		if !collected(freed[k]) {
			t.Errorf("the finished %s launch (launch %d of %d on the slot) is still reachable: the idle shell pins it", dev.cfg.Arch, k+1, len(devs))
		}
	}
}

// collected reports whether freed closes within a hundred collections.
func collected(freed <-chan struct{}) bool {
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-freed:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}

// allocFigure is what one launch allocates.
type allocFigure struct{ bytes, mallocs uint64 }

// measureAllocs runs launch(n) to warm up, then launch(0) … launch(n-1),
// and returns what they allocated per launch. Like testing.AllocsPerRun
// it measures on one P.
func measureAllocs(n int, launch func(i int)) allocFigure {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	launch(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range n {
		launch(i)
	}
	runtime.ReadMemStats(&after)
	return allocFigure{(after.TotalAlloc - before.TotalAlloc) / uint64(n), (after.Mallocs - before.Mallocs) / uint64(n)}
}

// allocBudgets are the ratchets on what a launch allocates once the
// storage it re-arms is warm, one row per test, each named after its
// test. setup builds the row's device and its n+1 launches; base, where
// the bound is relative, is the launch the bound compares with. within
// holds the row's bound, which it keeps with the figure recorded before
// that storage was re-armed, and bound says it.
var allocBudgets = map[string]struct {
	n      int
	setup  func(t *testing.T) (launch, base func(i int))
	within func(got, base allocFigure) bool
	bound  string
}{
	// A 2-CTA x 64-thread generated kernel through Device.Run on SBI+SWI.
	// Building the SM for every launch cost 43 KB and 85 mallocs here (62
	// KB and 98 on launch-storm's mix); what is left, ~1.5 KB in 18, is
	// the launch's own plumbing: stream, future, goroutine, contexts, the
	// wave plan, the Result.
	"TestWarmLaunchAllocBudget": {200, func(t *testing.T) (launch, base func(int)) {
		dev, k := mustNew(WithArch(sm.ArchSBISWI), WithWorkers(1)), progen.Kernel(1, 3, 2, 64)
		ls := make([]*exec.Launch, 201)
		for i := range ls {
			ls[i] = launchOn(t, dev, k)
		}
		return func(i int) { runOn(t, dev, ls[i]) }, nil
	}, func(got, _ allocFigure) bool {
		return got.bytes <= 8<<10 && got.mallocs < parentWarmLaunchMallocs/2
	}, fmt.Sprintf("at most 8192 bytes in fewer than half the %d mallocs it made when every launch built its SM", parentWarmLaunchMallocs)},
	// RunSuite over the 10 regular kernels on a one-worker SBI+SWI
	// device, a pass per launch. Each suite entry refills the image the
	// benchmark's last clean run handed back instead of copying its input
	// into a new one; what is left is the entry's own plumbing.
	"TestWarmSuiteAllocBudget": {5, func(t *testing.T) (launch, base func(int)) {
		dev := mustNew(WithArch(sm.ArchSBISWI), WithWorkers(1))
		return func(int) {
			if _, err := dev.RunSuite(context.Background(), kernels.Regular()); err != nil {
				t.Fatal(err)
			}
		}, nil
	}, func(got, _ allocFigure) bool {
		return got.bytes/uint64(len(kernels.Regular())) <= 4<<10
	}, fmt.Sprintf("at most 4096 bytes a suite entry, where each allocated %d when every launch copied its input into a new image", parentWarmSuiteLaunchBytes)},
	// Transpose in 9 waves on the memsys row's 4-SM device, one worker.
	// The L2 and crossbar ride the spare, and the waves share five image
	// buffers, folded as they finish, where each had a clone beside a
	// pre-launch snapshot and the merge's written-byte mask; all but the
	// merged one ride the spare to the next launch.
	"TestWarmMemsysLaunchAllocBudget": {10, func(t *testing.T) (launch, base func(int)) {
		dev := mustNew(memsysOpts(true, WithWorkers(1))...)
		ls := make([]*exec.Launch, 11)
		for i := range ls {
			ls[i] = mustLaunch(t, "Transpose")
		}
		return func(i int) {
			if res := runOn(t, dev, ls[i]); len(res.Waves) != 9 {
				t.Fatalf("Transpose ran in %d waves, want 9", len(res.Waves))
			}
		}, nil
	}, func(got, _ allocFigure) bool {
		return got.bytes < parentWarmMemsysLaunchBytes/2
	}, fmt.Sprintf("under half the %d bytes it allocated when every launch built its L2, crossbar and snapshots", parentWarmMemsysLaunchBytes)},
	// Transpose in 9 waves on a new memsys-row device per launch, as a
	// sweep builds a device per point. Each device re-arms the shells,
	// wave buffers, L2 and crossbar the last one gave back to the
	// process-wide store; what is left is the device, the domain's merged
	// image and the launch's plumbing.
	"TestFreshDeviceAllocBudget": {10, func(t *testing.T) (launch, base func(int)) {
		ls := make([]*exec.Launch, 11)
		for i := range ls {
			ls[i] = mustLaunch(t, "Transpose")
		}
		return func(i int) { runOn(t, mustNew(memsysOpts(true, WithWorkers(1))...), ls[i]) }, nil
	}, func(got, _ allocFigure) bool {
		return got.bytes < parentFreshDeviceLaunchBytes/8
	}, fmt.Sprintf("under an eighth of the %d bytes it allocated when each device built its shells, L2 and crossbar", parentFreshDeviceLaunchBytes)},
	// A partitioned launch that fails in wave 0, at 2^18 CTAs against
	// 2^12. It claims its waves on at most the run queue's goroutines and
	// stops claiming once a wave has failed; a launch that started one
	// goroutine per wave, each parked on the run queue until the failure
	// cancelled it, would allocate per wave, and so would one that sized
	// every wave's Stats before the first wave ran. The device's spare
	// store is its own, so every failed domain builds its shell anew,
	// whatever other tests gave back to the process-wide one.
	"TestFailedWaveStopsThePartitionedLaunch": {3, func(t *testing.T) (launch, base func(int)) {
		leakcheck.Check(t)
		dev := mustNew(WithArch(sm.ArchSBI), WithSMs(4), privateQueue(2), WithGridPartition(true))
		p := mustProgram(t, "store-out-of-bounds", storeOutOfBounds)
		failing := func(grid int) func(int) {
			return func(int) {
				l := &exec.Launch{Prog: p, GridDim: grid, BlockDim: 32, Global: make([]byte, 64)}
				if _, err := dev.Run(context.Background(), l); err == nil {
					t.Fatalf("grid %d: a launch storing out of bounds succeeded", grid)
				}
			}
		}
		return failing(1 << 18), failing(1 << 12)
	}, func(got, base allocFigure) bool {
		return got.mallocs <= base.mallocs+16 && got.bytes < parentFailedWaveLaunchBytes/6
	}, fmt.Sprintf("within 16 mallocs of the same launch at 2^12 CTAs, not growing with the grid, and under a sixth of the %d bytes it allocated when the launch sized every wave's Stats before running one", parentFailedWaveLaunchBytes)},
}

// checkAllocBudget measures the test's row of allocBudgets, logs the
// figure and checks the row's bound.
func checkAllocBudget(t *testing.T) {
	row := allocBudgets[t.Name()]
	launch, base := row.setup(t)
	got, ref := measureAllocs(row.n, launch), allocFigure{}
	t.Logf("a launch allocates %d bytes in %d mallocs", got.bytes, got.mallocs)
	if base != nil {
		ref = measureAllocs(row.n, base)
		t.Logf("the launch it is held to allocates %d bytes in %d mallocs", ref.bytes, ref.mallocs)
	}
	if !row.within(got, ref) {
		t.Errorf("a launch allocates %d bytes in %d mallocs, want %s", got.bytes, got.mallocs, row.bound)
	}
}

// runOn runs l on dev and returns its Result.
func runOn(t *testing.T, dev *Device, l *exec.Launch) *sm.Result {
	t.Helper()
	res, err := dev.Run(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWarmLaunchAllocBudget(t *testing.T)               { checkAllocBudget(t) }
func TestWarmSuiteAllocBudget(t *testing.T)                { checkAllocBudget(t) }
func TestWarmMemsysLaunchAllocBudget(t *testing.T)         { checkAllocBudget(t) }
func TestFreshDeviceAllocBudget(t *testing.T)              { checkAllocBudget(t) }
func TestFailedWaveStopsThePartitionedLaunch(t *testing.T) { checkAllocBudget(t) }

// parentWarmLaunchMallocs is what the launch of TestWarmLaunchAllocBudget
// cost in mallocs before SM shells were recycled.
const parentWarmLaunchMallocs = 85

// parentWarmSuiteLaunchBytes is what a suite entry of
// TestWarmSuiteAllocBudget allocated when every launch copied its input
// into a new image.
const parentWarmSuiteLaunchBytes = 70051

// parentWarmMemsysLaunchBytes is what the launch of
// TestWarmMemsysLaunchAllocBudget allocated when every launch built its
// L2 and crossbar, cloned a pre-launch snapshot per wave and merged the
// clones under a written-byte mask.
const parentWarmMemsysLaunchBytes = 1002856

// parentFreshDeviceLaunchBytes is what the launch of
// TestFreshDeviceAllocBudget allocated when each device's run queue
// built its own shells, L2, crossbar and wave buffers.
const parentFreshDeviceLaunchBytes = 1289864

// parentFailedWaveLaunchBytes is what the 2^18-CTA launch of
// TestFailedWaveStopsThePartitionedLaunch allocated when the launch sized
// every wave's Stats before its first wave ran.
const parentFailedWaveLaunchBytes = 8042448

// TestRecycleReplayOverStaleBuffers: a replayed memsys launch runs on
// the launch's own image, so the wave buffers its spare brings from an
// earlier launch of another size take no part in it, neither as wave
// images nor folded into a merged one. Histogram is
// recorded, Transpose then leaves buffers of its own size on the one
// spare, and Histogram's replay at half the port bandwidth over that
// spare must still replay, with nothing logged, and equal a full
// simulation at that bandwidth.
func TestRecycleReplayOverStaleBuffers(t *testing.T) {
	q := newRunQueue(1, new(spareStore))
	cache := NewSimCache()
	var log bytes.Buffer
	half := noc.Default()
	half.BytesPerCycle /= 2
	traced := []Option{WithRunQueue(q), WithSimCache(cache), WithTraceReplay(true), WithReplayLog(&log)}
	suite := []*kernels.Benchmark{mustBench(t, "Histogram")}
	if c := runSuite(mustNew(memsysOpts(true, traced...)...), suite)[0]; c.err != nil {
		t.Fatal(c.err)
	}
	if _, err := mustNew(memsysOpts(true, WithRunQueue(q))...).Run(context.Background(), mustLaunch(t, "Transpose")); err != nil {
		t.Fatal(err)
	}
	replayed := runSuite(mustNew(memsysOpts(true, append(traced, WithInterconnect(half))...)...), suite)[0]
	full := runSuite(mustNew(memsysOpts(true, privateQueue(1), WithInterconnect(half))...), suite)[0]
	if replayed.err != nil || full.err != nil {
		t.Fatalf("replay: %v, full simulation: %v", replayed.err, full.err)
	}
	if !replayed.res.Replayed || log.Len() > 0 {
		t.Fatalf("the launch replayed %v and logged %q", replayed.res.Replayed, log.String())
	}
	if replayed.res.Stats != full.res.Stats {
		t.Errorf("the replay differs from full simulation\ngot  %+v\nwant %+v", replayed.res.Stats, full.res.Stats)
	}
}
