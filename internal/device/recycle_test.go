package device

import (
	"bytes"
	"context"
	"errors"
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

// TestWarmLaunchAllocBudget is the ratchet on what a small launch
// allocates once its spare is warm: a 2-CTA x 64-thread generated kernel
// through Device.Run on SBI+SWI. Building the SM for every launch cost
// 43 KB and 85 mallocs here (62 KB and 98 on launch-storm's mix); what
// is left, ~1.5 KB in 18, is the launch's own plumbing: stream, future,
// goroutine, contexts, the wave plan, the Result.
func TestWarmLaunchAllocBudget(t *testing.T) {
	dev, err := New(WithArch(sm.ArchSBISWI), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	k := progen.Kernel(1, 3, 2, 64)
	ctx := context.Background()
	const launches = 200
	ls := make([]*exec.Launch, launches+1)
	for i := range ls {
		ls[i] = launchOn(t, dev, k)
	}
	if _, err := dev.Run(ctx, ls[launches]); err != nil { // warm-up
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, l := range ls[:launches] {
		if _, err := dev.Run(ctx, l); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perLaunch := (after.TotalAlloc - before.TotalAlloc) / launches
	l := launchOn(t, dev, k)
	mallocs := testing.AllocsPerRun(100, func() {
		clear(l.Global)
		if _, err := dev.Run(ctx, l); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a warm launch allocates %d bytes in %.0f mallocs", perLaunch, mallocs)
	if perLaunch > 8<<10 {
		t.Errorf("a warm launch allocates %d bytes, budget 8192", perLaunch)
	}
	if mallocs >= parentWarmLaunchMallocs/2 {
		t.Errorf("a warm launch makes %.0f mallocs, want fewer than half the %d it made when every launch built its SM", mallocs, parentWarmLaunchMallocs)
	}
}

// parentWarmLaunchMallocs is what the launch of TestWarmLaunchAllocBudget
// cost in mallocs before SM shells were recycled.
const parentWarmLaunchMallocs = 85

// TestWarmSuiteAllocBudget is the ratchet on what a suite entry
// allocates once its benchmark and spare are warm: RunSuite over the
// regular suite on a one-worker SBI+SWI device. Each launch refills the
// image the benchmark's last clean run handed back instead of copying
// its input into a new one; what is left is the entry's own plumbing.
func TestWarmSuiteAllocBudget(t *testing.T) {
	dev, err := New(WithArch(sm.ArchSBISWI), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	suite := kernels.Regular()
	ctx := context.Background()
	if _, err := dev.RunSuite(ctx, suite); err != nil { // warm-up
		t.Fatal(err)
	}
	const passes = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < passes; i++ {
		if _, err := dev.RunSuite(ctx, suite); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perLaunch := (after.TotalAlloc - before.TotalAlloc) / uint64(passes*len(suite))
	t.Logf("a warm suite entry allocates %d bytes", perLaunch)
	if perLaunch > 4<<10 {
		t.Errorf("a warm suite entry allocates %d bytes, budget 4096 (%d when every launch copied its input into a new image)", perLaunch, parentWarmSuiteLaunchBytes)
	}
}

// parentWarmSuiteLaunchBytes is what a suite entry of
// TestWarmSuiteAllocBudget allocated when every launch copied its input
// into a new image.
const parentWarmSuiteLaunchBytes = 70051

// TestWarmMemsysLaunchAllocBudget is the ratchet on what a partitioned
// launch behind the modeled memory system allocates once its spare is
// warm: Transpose in 9 waves on the memsys row's 4-SM device, one
// worker. The L2 and crossbar ride the spare, and the waves share five
// image buffers, folded as they finish, where each had a clone beside a
// pre-launch snapshot and the merge's written-byte mask; all but the
// merged one ride the spare to the next launch.
func TestWarmMemsysLaunchAllocBudget(t *testing.T) {
	dev, err := New(memsysOpts(true, WithWorkers(1))...)
	if err != nil {
		t.Fatal(err)
	}
	const launches = 10
	ls := make([]*exec.Launch, launches+1)
	for i := range ls {
		ls[i] = mustLaunch(t, "Transpose")
	}
	ctx := context.Background()
	if res, err := dev.Run(ctx, ls[launches]); err != nil { // warm-up
		t.Fatal(err)
	} else if len(res.Waves) != 9 {
		t.Fatalf("Transpose ran in %d waves, want 9", len(res.Waves))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, l := range ls[:launches] {
		if _, err := dev.Run(ctx, l); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perLaunch := (after.TotalAlloc - before.TotalAlloc) / launches
	t.Logf("a warm memsys launch allocates %d bytes", perLaunch)
	if perLaunch >= parentWarmMemsysLaunchBytes/2 {
		t.Errorf("a warm memsys launch allocates %d bytes, want under half the %d it allocated when every launch built its L2, crossbar and snapshots", perLaunch, parentWarmMemsysLaunchBytes)
	}
}

// parentWarmMemsysLaunchBytes is what the launch of
// TestWarmMemsysLaunchAllocBudget allocated when every launch built its
// L2 and crossbar, cloned a pre-launch snapshot per wave and merged the
// clones under a written-byte mask.
const parentWarmMemsysLaunchBytes = 1002856

// TestFreshDeviceAllocBudget is the ratchet on what a launch on a new
// device allocates once the process-wide spare store is warm: Transpose
// in 9 waves on a new memsys-row device per launch, as a sweep builds a
// device per point. Each device re-arms the shells, wave buffers, L2
// and crossbar the last one gave back; what is left is the device, the
// domain's merged image and the launch's plumbing.
func TestFreshDeviceAllocBudget(t *testing.T) {
	const launches = 10
	ls := make([]*exec.Launch, launches+1)
	for i := range ls {
		ls[i] = mustLaunch(t, "Transpose")
	}
	ctx := context.Background()
	run := func(l *exec.Launch) {
		if _, err := mustNew(memsysOpts(true, WithWorkers(1))...).Run(ctx, l); err != nil {
			t.Fatal(err)
		}
	}
	run(ls[launches]) // warm-up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, l := range ls[:launches] {
		run(l)
	}
	runtime.ReadMemStats(&after)
	perLaunch := (after.TotalAlloc - before.TotalAlloc) / launches
	t.Logf("a launch on a new device allocates %d bytes", perLaunch)
	if perLaunch >= parentFreshDeviceLaunchBytes/8 {
		t.Errorf("a launch on a new device allocates %d bytes, want under an eighth of the %d it allocated when each device built its shells, L2 and crossbar", perLaunch, parentFreshDeviceLaunchBytes)
	}
}

// parentFreshDeviceLaunchBytes is what the launch of
// TestFreshDeviceAllocBudget allocated when each device's run queue
// built its own shells, L2, crossbar and wave buffers.
const parentFreshDeviceLaunchBytes = 1289864

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
