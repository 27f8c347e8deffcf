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
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/leakcheck"
	"repro/internal/mem"
	"repro/internal/progen"
	"repro/internal/sm"
)

// A launch re-arms the SM shells its run-queue slot carries. These
// tests hold the two halves of that contract at the device boundary: a
// recycled launch equals one on a device that has never run anything,
// and a launch that fails — any way a launch can — donates nothing.

// genKernels returns n generated kernels in launch-storm's shapes (grid
// 1-4, block 32-128, 3-6 regions), seeded 1 to n. It is the package's
// only generator loop.
func genKernels(n int) []*kernels.Benchmark {
	ks := make([]*kernels.Benchmark, n)
	for i := range ks {
		ks[i] = genKernel(i, 1+i%4, 32*(1+i/4%4))
	}
	return ks
}

// genKernel is generated kernel i in the given shape, as a benchmark
// the device runs like a suite kernel: a zeroed image of one word per
// thread, and the functional reference as its oracle.
func genKernel(i, grid, block int) *kernels.Benchmark {
	gen := progen.New(uint64(i) + 1)
	plain, err := gen.Program(fmt.Sprintf("gen%03d", i), 3+i/16%4)
	if err != nil {
		panic(err) // every generated program assembles
	}
	return &kernels.Benchmark{
		Name: plain.Name, Source: gen.Source(), Grid: grid, Block: block,
		Setup: func(*kernels.Benchmark) ([]byte, [isa.NumParams]uint32) {
			return make([]byte, 4*grid*block), [isa.NumParams]uint32{}
		},
		Reference: func(_ *kernels.Benchmark, global []byte, params [isa.NumParams]uint32) {
			l := &exec.Launch{Prog: plain, GridDim: grid, BlockDim: block, Params: params, Global: global}
			if _, err := exec.RunReference(l, 32); err != nil {
				panic(err) // every generated program terminates
			}
		},
	}
}

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

// slotShells takes the device's only free slot and reports the shells
// on it.
func slotShells(t *testing.T, d *Device) []*sm.Runner {
	t.Helper()
	shells, err := d.queue.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	d.queue.release(shells)
	return shells
}

// TestRecycleAfterFailure: on a one-slot device a warm shell serves a
// launch that fails — livelock, cancellation, watchdog, panic — and the
// slot comes back empty; the good launch after it builds its SM anew
// and computes exactly what a never-used device computes.
func TestRecycleAfterFailure(t *testing.T) {
	leakcheck.Check(t)
	for _, c := range []struct {
		name string
		opts []Option
		fail func(t *testing.T, d *Device) error
	}{
		{"livelock", []Option{WithModifier(func(c *sm.Config) { c.MaxCycles = 20000 })}, func(t *testing.T, d *Device) error {
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
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := slices.Concat([]Option{WithArch(sm.ArchSBISWI), WithWorkers(1)}, c.opts)
			dev, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			ks := genKernels(2)
			if _, err := dev.Run(context.Background(), launchOn(t, dev, ks[0])); err != nil {
				t.Fatalf("warm-up: %v", err)
			}
			if slotShells(t, dev) == nil {
				t.Fatal("a clean launch left no shell on its slot: nothing is being recycled")
			}
			if c.fail(t, dev) == nil {
				t.Fatal("the failing launch succeeded")
			}
			if sh := slotShells(t, dev); sh != nil {
				t.Errorf("the failed launch donated %d shell(s) to its slot", len(sh))
			}

			l := launchOn(t, dev, ks[1])
			got, err := dev.Run(context.Background(), l)
			if err != nil {
				t.Fatalf("good launch after the failure: %v", err)
			}
			fresh, err := New(opts...)
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
	ks := genKernels(48)
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
			fresh, err := New(slices.Concat(opts, []Option{WithWorkers(1)})...)
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

// TestRecycleShellKeepsNoLaunch: the shell a clean launch leaves on its
// slot holds on to nothing of that launch — its memory image is
// collectable once the caller lets go, not only when the slot is next
// used.
func TestRecycleShellKeepsNoLaunch(t *testing.T) {
	dev, err := New(WithArch(sm.ArchSBISWI), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	func() {
		l := launchOn(t, dev, genKernel(0, 1, 32))
		runtime.SetFinalizer(l, func(*exec.Launch) { close(freed) })
		if _, err := dev.Run(context.Background(), l); err != nil {
			t.Fatal(err)
		}
	}()
	if slotShells(t, dev) == nil {
		t.Fatal("the launch left no shell on its slot")
	}
	defer runtime.KeepAlive(dev) // the device, its queue and the shell outlive the launch
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Error("the finished launch is still reachable: the idle shell pins it")
}

// TestWarmLaunchAllocBudget is the ratchet on what a small launch
// allocates once its slot is warm: a 2-CTA x 64-thread generated kernel
// through Device.Run on SBI+SWI. Building the SM for every launch cost
// 43 KB and 85 mallocs here (62 KB and 98 on launch-storm's mix); what
// is left, ~1.5 KB in 18, is the launch's own plumbing: stream, future,
// goroutine, contexts, the wave plan, the Result.
func TestWarmLaunchAllocBudget(t *testing.T) {
	dev, err := New(WithArch(sm.ArchSBISWI), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	k := genKernel(0, 2, 64)
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
