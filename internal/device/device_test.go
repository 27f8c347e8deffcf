package device

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/leakcheck"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sm"
)

func TestNewValidates(t *testing.T) {
	if _, err := New(WithSMs(0)); err == nil {
		t.Error("zero SMs must be rejected")
	}
	bad := sm.Configure(sm.ArchSBI)
	bad.NumWarps = -1
	if _, err := New(WithConfig(bad)); err == nil {
		t.Error("invalid config must be rejected")
	}
	// An out-of-range memory system, front-end timing or device shape is
	// rejected by New, before any launch can meet it inside the
	// simulation. A timing past the bounds of noc.MaxLatency used to wrap
	// the cycle arithmetic and make the run faster; a count past MaxSMs
	// or MaxWorkers panicked or hung sizing its SM shells or slots.
	cfg := func(f func(*sm.Config)) Option { return tweaked(sm.ArchSBISWI, f) }
	bigNoC, slowNoC, nanNoC := noc.Default(), noc.Default(), noc.Default()
	bigNoC.Latency, slowNoC.BytesPerCycle, nanNoC.BytesPerCycle = math.MaxInt64, 1e-300, math.NaN()
	nanL2, bigL2 := mem.DefaultL2(), mem.DefaultL2()
	nanL2.BytesPerCycle, bigL2.HitLatency = math.NaN(), math.MaxInt64
	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"L1Bytes=0", cfg(func(c *sm.Config) { c.Mem.L1Bytes = 0 })},
		{"L1Ways=0", cfg(func(c *sm.Config) { c.Mem.L1Ways = 0 })},
		{"BlockBytes=0", cfg(func(c *sm.Config) { c.Mem.BlockBytes = 0 })},
		{"BlockBytes=96", cfg(func(c *sm.Config) { c.Mem.BlockBytes = 96 })},
		{"BytesPerCycle=0", cfg(func(c *sm.Config) { c.Mem.BytesPerCycle = 0 })},
		{"BytesPerCycle=-1", cfg(func(c *sm.Config) { c.Mem.BytesPerCycle = -1 })},
		{"MemLatency=-5", cfg(func(c *sm.Config) { c.Mem.MemLatency = -5 })},
		{"HitLatency=-1", cfg(func(c *sm.Config) { c.Mem.HitLatency = -1 })},
		{"StoreQueue=-1", cfg(func(c *sm.Config) { c.Mem.StoreQueue = -1 })},
		{"IssueDelay=-1", cfg(func(c *sm.Config) { c.IssueDelay = -1 })},
		{"SharedLatency=-1", cfg(func(c *sm.Config) { c.SharedLatency = -1 })},
		{"MemLatency=MaxInt64", cfg(func(c *sm.Config) { c.Mem.MemLatency = math.MaxInt64 })},
		{"BytesPerCycle=1e-300", cfg(func(c *sm.Config) { c.Mem.BytesPerCycle = 1e-300 })},
		{"BytesPerCycle=NaN", cfg(func(c *sm.Config) { c.Mem.BytesPerCycle = math.NaN() })},
		{"HitLatency=MaxInt64", cfg(func(c *sm.Config) { c.Mem.HitLatency = math.MaxInt64 })},
		{"ExecLatency=MaxInt64", cfg(func(c *sm.Config) { c.ExecLatency = math.MaxInt64 })},
		{"SharedLatency=MaxInt64", cfg(func(c *sm.Config) { c.SharedLatency = math.MaxInt64 })},
		{"IssueDelay=MaxInt64", cfg(func(c *sm.Config) { c.IssueDelay = math.MaxInt64 })},
		{"MaxCycles=2^40+1", cfg(func(c *sm.Config) { c.MaxCycles = noc.MaxCycles + 1 })},
		{"NoC Latency=MaxInt64", WithInterconnect(bigNoC)},
		{"NoC BytesPerCycle=1e-300", WithInterconnect(slowNoC)},
		{"NoC BytesPerCycle=NaN", WithInterconnect(nanNoC)},
		{"L2 BytesPerCycle=NaN", WithL2(nanL2)},
		{"L2 HitLatency=MaxInt64", WithL2(bigL2)},
		{"SMs=4e18", WithSMs(4e18)},
		{"SMs=MaxSMs+1", WithSMs(MaxSMs + 1)},
		{"Workers=4e18", WithWorkers(4e18)},
		{"Workers=MaxWorkers+1", WithWorkers(MaxWorkers + 1)},
	} {
		if _, err := New(tc.opt); err == nil {
			t.Errorf("%s must be rejected", tc.name)
		}
	}
}

// tweaked is WithConfig of architecture a's table-2 configuration with
// f applied: the one way a test sets a single Config field.
func tweaked(a sm.Arch, f func(*sm.Config)) Option {
	c := sm.Configure(a)
	f(&c)
	return WithConfig(c)
}

// TestOptionOrder pins last-wins: WithArch and WithConfig each replace
// the whole configuration.
func TestOptionOrder(t *testing.T) {
	c := sm.Configure(sm.ArchSBI)
	c.Seed = 42
	for _, tc := range []struct {
		name string
		opts []Option
		want sm.Config
	}{
		{"config-then-arch", []Option{WithConfig(c), WithArch(sm.ArchSWI)}, sm.Configure(sm.ArchSWI)},
		{"arch-then-config", []Option{WithArch(sm.ArchSWI), WithConfig(c)}, c},
	} {
		dev, err := New(tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got := dev.Config(); got != tc.want {
			t.Errorf("%s: cfg = %+v, want %+v", tc.name, got, tc.want)
		}
		if dev.SMs() != 1 || dev.Workers() <= 0 {
			t.Errorf("%s: defaults: sms %d workers %d", tc.name, dev.SMs(), dev.Workers())
		}
	}
}

func TestRunSuiteReportsOracleMismatch(t *testing.T) {
	leakcheck.Check(t)
	good, ok := kernels.ByName("Histogram")
	if !ok {
		t.Fatal("Histogram missing")
	}
	// A benchmark whose oracle disagrees with its kernel: RunSuite must
	// flag it instead of returning silently wrong statistics.
	bad := &kernels.Benchmark{
		Name: "BadOracle", Grid: 1, Block: 32,
		Source: `
	mov  r1, %tid
	shl  r2, r1, 2
	mov  r3, %p0
	iadd r3, r3, r2
	st.g [r3], r1
	exit
`,
		Setup: func(*kernels.Benchmark) ([]byte, [isa.NumParams]uint32) {
			return make([]byte, 32*4), [isa.NumParams]uint32{}
		},
		Reference: func(_ *kernels.Benchmark, global []byte, _ [isa.NumParams]uint32) {
			global[0] = 0xFF // deliberately wrong
		},
	}
	dev, err := New(WithArch(sm.ArchSBISWI))
	if err != nil {
		t.Fatal(err)
	}
	results, err := dev.RunSuite(context.Background(), []*kernels.Benchmark{good, bad})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Errorf("Histogram: %v", results[0].Err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "diverged from reference") {
		t.Errorf("BadOracle err = %v, want oracle mismatch", results[1].Err)
	}
}

// conflictingStores has every CTA write a CTA-dependent value to the
// same global word — the contract violation the merge must catch.
const conflictingStores = `
	mov  r1, %ctaid
	iadd r1, r1, 1
	mov  r2, %p0
	st.g [r2], r1
	exit
`

func TestPartitionedRunDetectsWriteConflicts(t *testing.T) {
	l := twoWaveLaunch(t, "conflict", conflictingStores)
	dev, err := New(WithArch(sm.ArchSBISWI), WithSMs(2), WithGridPartition(true))
	if err != nil {
		t.Fatal(err)
	}
	_, err = dev.Run(context.Background(), l)
	var conflict *exec.WriteConflict
	if !errors.As(err, &conflict) {
		t.Fatalf("err = %v, want a WriteConflict", err)
	}
}

// storeOutOfBounds has every thread store past the end of a 64-byte
// image, so every wave of its launch fails at its first store.
const storeOutOfBounds = `
	mov  r1, 1
	mov  r2, 4096
	st.g [r2], r1
	exit
`

// The three shapes a launch can take in the wave engine (memsys.go), as
// device options on two SMs.
var engineShapes = []struct {
	name string
	opts []Option
}{
	{"whole-grid", nil},
	{"flat-partitioned", []Option{WithGridPartition(true)}},
	{"memsys-partitioned", []Option{WithGridPartition(true), WithL2(mem.DefaultL2())}},
}

// twoWaveLaunch builds a launch of src spanning two CTA waves: block 256
// is 4 warps per CTA, so 4 CTAs are resident and grid 8 is two waves.
func twoWaveLaunch(t *testing.T, name, src string) *exec.Launch {
	t.Helper()
	return &exec.Launch{Prog: mustProgram(t, name, src), GridDim: 8, BlockDim: 256, Global: make([]byte, 64)}
}

// storeThenSpin writes 1 to the word at %p0 from every thread — the
// same value everywhere, so no merge conflict — and then never retires.
const storeThenSpin = `
	mov  r1, 1
	mov  r2, %p0
	st.g [r2], r1
spin:
	bra  spin
	exit
`

// TestFailedPartitionedRunLeavesImageUntouched pins Device.Run's
// documented promise: a partitioned launch that fails or is cancelled
// mid-run leaves the caller's memory image exactly as it was, because
// its waves only ever wrote to private clones. The whole-grid shape is
// the control showing the kernel really stores before it fails: it runs
// on the live image and may leave it partially written.
func TestFailedPartitionedRunLeavesImageUntouched(t *testing.T) {
	leakcheck.Check(t)
	for _, shape := range engineShapes {
		for _, abort := range []string{"livelock", "cancel"} {
			t.Run(shape.name+"/"+abort, func(t *testing.T) {
				opts := append([]Option{WithArch(sm.ArchSBISWI), WithSMs(2), WithWorkers(2)}, shape.opts...)
				if abort == "livelock" {
					opts = append(opts, tweaked(sm.ArchSBISWI, func(c *sm.Config) { c.MaxCycles = 5000 }))
				}
				dev, err := New(opts...)
				if err != nil {
					t.Fatal(err)
				}
				l := twoWaveLaunch(t, "store-then-spin", storeThenSpin)
				before := bytes.Clone(l.Global)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				p := dev.NewStream().Launch(ctx, l)
				if abort == "cancel" {
					// Cancel once the run queue has admitted the launch and
					// its SMs have had time to execute the stores.
					for dev.queue.busy() == 0 {
						time.Sleep(100 * time.Microsecond)
					}
					time.Sleep(5 * time.Millisecond)
					cancel()
				}
				_, err = p.Wait()
				var le *sm.LivelockError
				if abort == "livelock" && !errors.As(err, &le) {
					t.Fatalf("err = %v, want *sm.LivelockError", err)
				}
				if abort == "cancel" && !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if untouched := bytes.Equal(l.Global, before); shape.opts != nil && !untouched {
					t.Errorf("failed partitioned launch changed the caller's image: %v", l.Global[:4])
				} else if shape.opts == nil && abort == "livelock" && untouched {
					t.Error("control: the whole-grid run never stored, so this test proves nothing")
				}
			})
		}
	}
}

// busy returns the number of granted slots (test hook).
func (q *RunQueue) busy() int { return cap(q.slots) - len(q.slots) }

// TestShapesAgreeOnErrors: whatever shape the wave engine gives a
// launch, and however many host workers it has, a livelocking kernel
// fails with *sm.LivelockError, a write-conflicting kernel with the
// merge's *exec.WriteConflict (except whole-grid, which has nothing to
// merge), and a pre-cancelled context with context.Canceled.
func TestShapesAgreeOnErrors(t *testing.T) {
	leakcheck.Check(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name, src string
		ctx       context.Context
		check     func(shape string, err error) bool
	}{
		{"livelock", storeThenSpin, context.Background(), func(_ string, err error) bool {
			var le *sm.LivelockError
			return errors.As(err, &le)
		}},
		{"write-conflict", conflictingStores, context.Background(), func(shape string, err error) bool {
			var wc *exec.WriteConflict
			return errors.As(err, &wc) || (shape == "whole-grid" && err == nil)
		}},
		{"pre-cancelled", storeThenSpin, cancelled, func(_ string, err error) bool {
			return errors.Is(err, context.Canceled)
		}},
	}
	for _, shape := range engineShapes {
		for _, workers := range []int{1, 4} {
			opts := append([]Option{WithSMs(2), WithWorkers(workers),
				tweaked(sm.ArchSBISWI, func(c *sm.Config) { c.MaxCycles = 5000 })}, shape.opts...)
			dev, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cases {
				t.Run(fmt.Sprintf("%s/workers%d/%s", shape.name, workers, c.name), func(t *testing.T) {
					// Device.run directly: Stream.Launch would turn the
					// pre-cancelled context away before the engine saw it.
					l := twoWaveLaunch(t, c.name, c.src)
					if _, err := dev.run(c.ctx, l, dev.partition, nil, nil); !c.check(shape.name, err) {
						t.Errorf("err = %v (%T)", err, err)
					}
				})
			}
		}
	}
}

// TestMemsysPartitionIdleSMs: a memsys-partitioned launch with fewer
// waves than SMs still reports every configured SM — zeros for the ones
// that never received a wave.
func TestMemsysPartitionIdleSMs(t *testing.T) {
	dev, err := New(WithArch(sm.ArchSBISWI), WithSMs(4), WithGridPartition(true), WithL2(mem.DefaultL2()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dev.Run(context.Background(), twoWaveLaunch(t, "store", `
	mov  r1, 1
	mov  r2, %p0
	st.g [r2], r1
	exit
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Waves) != 2 || len(res.SMCycles) != 4 || len(res.NoCPorts) != 4 {
		t.Fatalf("%d waves, %d SMCycles, %d NoCPorts; want 2 waves reported over all 4 SMs", len(res.Waves), len(res.SMCycles), len(res.NoCPorts))
	}
	for i := range res.SMCycles {
		if busy := i < 2; (res.SMCycles[i] != 0) != busy || (res.NoCPorts[i].Requests != 0) != busy {
			t.Errorf("SM %d: %d cycles, %d NoC requests; want nonzero exactly for the two SMs that ran a wave", i, res.SMCycles[i], res.NoCPorts[i].Requests)
		}
	}
}

func mustProgram(t *testing.T, name, src string) *isa.Program {
	t.Helper()
	b := &kernels.Benchmark{
		Name: name, Grid: 1, Block: 1, Source: src,
		Setup: func(*kernels.Benchmark) ([]byte, [isa.NumParams]uint32) {
			return nil, [isa.NumParams]uint32{}
		},
		Reference: func(*kernels.Benchmark, []byte, [isa.NumParams]uint32) {},
	}
	p, err := b.Program(true)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
