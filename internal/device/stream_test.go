package device

import (
	"context"
	"encoding/binary"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/leakcheck"
	"repro/internal/sm"
)

// counterProgram builds a one-warp kernel that increments the 32-bit
// word at %p0 — FIFO-observable state shared between launches.
func counterProgram(t *testing.T) *exec.Launch {
	t.Helper()
	prog := mustProgram(t, "counter", `
	mov  r1, %p0
	ld.g r2, [r1]
	iadd r2, r2, 1
	st.g [r1], r2
	exit
`)
	return &exec.Launch{Prog: prog, GridDim: 1, BlockDim: 32, Global: make([]byte, 4)}
}

// TestStreamFIFOOrder: launches on one stream execute strictly in
// enqueue order even with idle workers. Every launch increments the
// same global counter through a shared memory image; concurrent or
// reordered execution would race on the slice (caught by -race) and
// miss increments.
func TestStreamFIFOOrder(t *testing.T) {
	leakcheck.Check(t)
	dev, err := New(WithArch(sm.ArchSBISWI), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	base := counterProgram(t)
	s := dev.NewStream()
	const n = 16
	pendings := make([]*Pending, n)
	for i := range pendings {
		l := &exec.Launch{Prog: base.Prog, GridDim: 1, BlockDim: 32, Global: base.Global}
		pendings[i] = s.Launch(context.Background(), l)
	}
	for i, p := range pendings {
		if _, err := p.Wait(); err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
	}
	if got := binary.LittleEndian.Uint32(base.Global); got != n {
		t.Errorf("counter = %d after %d FIFO launches, want %d", got, n, n)
	}
}

// TestStreamConcurrentUse pins Stream's concurrency contract: several
// goroutines launching on one stream, each recording and awaiting an
// event after every launch, all complete cleanly (run with -race, it
// catches an unlocked access to the stream's FIFO tail).
func TestStreamConcurrentUse(t *testing.T) {
	leakcheck.Check(t)
	dev, err := New(WithArch(sm.ArchSBISWI), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	b, ok := kernels.ByName("BlackScholes")
	if !ok {
		t.Fatal("BlackScholes missing")
	}
	s := dev.NewStream()
	const goroutines, launches = 4, 3
	pendings := make([]*Pending, goroutines*launches)
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < launches; i++ {
				l, err := b.NewLaunch(true)
				if err != nil {
					errs <- err
					return
				}
				pendings[g*launches+i] = s.Launch(context.Background(), l)
				if err := s.Record().Wait(context.Background()); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := dev.Synchronize(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, p := range pendings {
		if _, err := p.Wait(); err != nil {
			t.Errorf("launch %d: %v", i, err)
		}
	}
}

// spinLaunch builds a launch that simulates long enough to cancel
// mid-flight.
func spinLaunch(t *testing.T) *exec.Launch {
	t.Helper()
	prog := mustProgram(t, "spin", `
	mov  r1, 0
	mov  r2, 1000000
loop:
	iadd r1, r1, 1
	isetp.lt r3, r1, r2
	bra  r3, loop
	exit
`)
	return &exec.Launch{Prog: prog, GridDim: 64, BlockDim: 256}
}

// TestStreamCancellationMidStream pins the failure semantics: a launch
// cancelled mid-simulation completes with ctx.Err(), every entry
// enqueued after it on the same stream fails fast without simulating
// (the poison wraps the original cancellation so errors.Is still sees
// it), and other streams on the device are unaffected.
func TestStreamCancellationMidStream(t *testing.T) {
	leakcheck.Check(t)
	dev, err := New(WithArch(sm.ArchSBISWI), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	poisoned := dev.NewStream()
	p1 := poisoned.Launch(ctx, spinLaunch(t))
	b, ok := kernels.ByName("BFS")
	if !ok {
		t.Fatal("BFS missing")
	}
	mkBFS := func() *exec.Launch {
		l, err := b.NewLaunch(true)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	// Enqueued after the doomed launch, with their own live contexts:
	// must fail fast by poison, not run.
	p2 := poisoned.Launch(context.Background(), mkBFS())
	p3 := poisoned.Launch(context.Background(), mkBFS())

	healthy := dev.NewStream()
	q1 := healthy.Launch(context.Background(), mkBFS())

	time.Sleep(20 * time.Millisecond)
	cancel()

	if _, err := p1.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled launch returned %v, want context.Canceled", err)
	}
	start := time.Now()
	for i, p := range []*Pending{p2, p3} {
		res, err := p.Wait()
		if res != nil {
			t.Errorf("poisoned entry %d returned a result — it must not simulate", i)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("poisoned entry %d error = %v, want it to wrap context.Canceled", i, err)
		}
		if err == nil || !strings.Contains(err.Error(), "earlier stream operation failed") {
			t.Errorf("poisoned entry %d error = %v, want the poison wrap", i, err)
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("poisoned entries took %v to fail, want fail-fast", d)
	}

	// Poison is sticky: work enqueued after the failure fails too, and
	// an event recorded on the poisoned stream reports the failure.
	if _, err := poisoned.Launch(context.Background(), mkBFS()).Wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("post-failure launch error = %v, want sticky poison", err)
	}
	if err := poisoned.Record().Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Errorf("event on poisoned stream waited to %v, want the recorded failure", err)
	}

	// The sibling stream is unaffected.
	if _, err := q1.Wait(); err != nil {
		t.Errorf("healthy stream: %v", err)
	}
}

// TestEventCrossStreamDependency: WaitEvent orders work across
// streams. Stream A writes a value to shared memory; stream B waits on
// A's recorded event before reading it — without the edge the two
// launches would race on the shared image (-race would flag it).
func TestEventCrossStreamDependency(t *testing.T) {
	leakcheck.Check(t)
	dev, err := New(WithArch(sm.ArchSBISWI), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	writer := mustProgram(t, "writer", `
	mov  r1, %p0
	mov  r2, 42
	st.g [r1], r2
	exit
`)
	reader := mustProgram(t, "reader", `
	mov  r1, %p0
	ld.g r2, [r1]
	iadd r3, r1, 4
	st.g [r3], r2
	exit
`)
	global := make([]byte, 8)
	ctx := context.Background()

	a, bStream := dev.NewStream(), dev.NewStream()
	a.Launch(ctx, &exec.Launch{Prog: writer, GridDim: 1, BlockDim: 32, Global: global})
	ev := a.Record()
	bStream.WaitEvent(ev)
	rp := bStream.Launch(ctx, &exec.Launch{Prog: reader, GridDim: 1, BlockDim: 32, Global: global})
	if _, err := rp.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(global[4:]); got != 42 {
		t.Errorf("reader saw %d, want the writer's 42 — event edge did not order the streams", got)
	}
	if err := ev.Wait(ctx); err != nil {
		t.Errorf("completed event waits to %v", err)
	}
	if err := dev.NewStream().Record().Wait(ctx); err != nil {
		t.Errorf("event on an empty stream must complete immediately, got %v", err)
	}
}

// TestDeviceSynchronize: Synchronize returns only once everything in
// flight — across streams — has completed, and honors its context.
func TestDeviceSynchronize(t *testing.T) {
	leakcheck.Check(t)
	dev, err := New(WithArch(sm.ArchSBISWI), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	b, ok := kernels.ByName("BFS")
	if !ok {
		t.Fatal("BFS missing")
	}
	var pendings []*Pending
	for i := 0; i < 3; i++ {
		l, err := b.NewLaunch(true)
		if err != nil {
			t.Fatal(err)
		}
		pendings = append(pendings, dev.NewStream().Launch(context.Background(), l))
	}
	if err := dev.Synchronize(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, p := range pendings {
		select {
		case <-p.Done():
		default:
			t.Errorf("launch %d still pending after Synchronize", i)
		}
	}

	// A spinning launch keeps the device busy: Synchronize must give up
	// with the context's error, and drain cleanly once the spin is
	// cancelled.
	ctx, cancel := context.WithCancel(context.Background())
	spin := dev.NewStream().Launch(ctx, spinLaunch(t))
	short, cancelShort := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancelShort()
	if err := dev.Synchronize(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Synchronize on a busy device returned %v, want deadline exceeded", err)
	}
	cancel()
	if err := dev.Synchronize(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := spin.Wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("spin launch returned %v, want context.Canceled", err)
	}
}

// TestStreamQueueDepthBackpressure: with WithStreamQueueDepth(1) a
// second Launch blocks until the stream drains; a context expiring
// during the block yields an already-failed Pending.
func TestStreamQueueDepthBackpressure(t *testing.T) {
	leakcheck.Check(t)
	dev, err := New(WithArch(sm.ArchSBISWI), WithWorkers(1), WithStreamQueueDepth(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := dev.NewStream()
	p1 := s.Launch(ctx, spinLaunch(t))

	short, cancelShort := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancelShort()
	p2 := s.Launch(short, spinLaunch(t))
	if _, err := p2.Wait(); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("backpressured launch returned %v, want deadline exceeded", err)
	}
	select {
	case <-p1.Done():
		t.Error("first launch completed before its cancellation")
	default:
	}
	cancel()
	if _, err := p1.Wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("first launch returned %v, want context.Canceled", err)
	}
	if err := dev.Synchronize(context.Background()); err != nil {
		t.Fatal(err)
	}

	// New creation-time validation: a negative depth is rejected.
	if _, err := New(WithStreamQueueDepth(-1)); err == nil {
		t.Error("negative stream queue depth must be rejected")
	}
}

// TestRunQueueCancelledWaiter: a waiter abandoning the queue gets
// context.Canceled and takes no slot with it.
func TestRunQueueCancelledWaiter(t *testing.T) {
	leakcheck.Check(t)
	q := NewRunQueue(1)
	if _, err := q.acquire(context.Background()); err != nil { // occupy the only slot
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error)
	go func() { _, err := q.acquire(ctx); errc <- err }()
	select {
	case err := <-errc:
		t.Fatalf("acquire on a full queue returned %v before its cancellation", err)
	case <-time.After(10 * time.Millisecond):
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire returned %v", err)
	}
	q.release(nil)
	// The slot must be acquirable again.
	short, cancelShort := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShort()
	if _, err := q.acquire(short); err != nil {
		t.Fatalf("slot leaked: acquire after release returned %v", err)
	}
	q.release(nil)
	if n := q.busy(); n != 0 {
		t.Errorf("%d slots busy after every holder released", n)
	}
}
