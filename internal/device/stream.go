package device

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/locked"
	"repro/internal/sm"
)

// The asynchronous launch API: streams, events and futures.
//
// A Stream is a FIFO lane of work on its device, mirroring the CUDA
// stream model: Launch enqueues without blocking and returns a Pending
// future; operations within one stream execute strictly in enqueue
// order; operations on different streams run concurrently, admitted by
// the device-global run queue. Record/WaitEvent give cross-stream
// dependency edges, and Device.Synchronize drains everything the
// device has in flight.
//
// # Determinism
//
// Streams never change what a simulation computes. Every launch runs
// through exactly the engine Device.Run uses — same SM model, same
// partitioning decision, same memory image handling — so its Stats
// are bit-identical to the synchronous path no matter how launches
// interleave across streams, workers or hosts. The stream layer only
// decides when each simulation is admitted, and the interleaving
// determinism test pins this across 1/2/8 streams and worker counts.
//
// # Failure semantics
//
// A failed operation (simulation error or context cancellation)
// poisons its stream: every operation enqueued after it fails fast
// with an error wrapping the original — errors.Is still sees
// context.Canceled through the wrap — without simulating. Other
// streams are unaffected. A poisoned stream stays poisoned; discard it
// and open a new one (NewStream is cheap).
//
// Like CUDA, cyclic cross-stream waits (A waits on an event of B while
// B waits on an event of A) deadlock those streams; nothing detects
// this for you.

// Pending is the future of one asynchronous operation: a stream launch
// or a stream event-wait marker. It completes exactly once.
type Pending struct {
	done chan struct{}
	once sync.Once
	// res and err are completion-ordered, not mutex-guarded: written
	// once inside once.Do before done closes, read only after <-done.
	res *sm.Result
	err error
}

func newPending() *Pending { return &Pending{done: make(chan struct{})} }

// complete resolves the future exactly once; later calls are no-ops.
// The result fields are written before done is closed, so a waiter can
// never observe a half-written future — the panic-recovery paths rely
// on this being safe to call from any exit of an operation's goroutine.
func (p *Pending) complete(res *sm.Result, err error) {
	p.once.Do(func() {
		p.res, p.err = res, err
		close(p.done)
	})
}

// Done returns a channel closed when the operation has completed
// (successfully or not), for use in select loops.
func (p *Pending) Done() <-chan struct{} { return p.done }

// Wait blocks until the operation completes and returns its result.
// Cancellation is carried by the context passed at enqueue time: a
// cancelled launch completes promptly with that context's error, so
// Wait needs no context of its own.
func (p *Pending) Wait() (*sm.Result, error) {
	<-p.done
	return p.res, p.err
}

// failNow completes p immediately with err, before any goroutine runs.
func (p *Pending) failNow(err error) *Pending {
	p.complete(nil, err)
	return p
}

// Stream is a FIFO sequence of asynchronous operations on one device.
// A Stream is safe for concurrent use; operations enqueued from
// several goroutines are serialized in Launch-call order.
type Stream struct {
	dev *Device

	// depth, when non-nil, is the launch-queue bound
	// (WithStreamQueueDepth): one token per enqueued-but-incomplete
	// launch, so Launch applies backpressure once the stream is depth
	// launches deep.
	depth chan struct{}

	// tail is the most recently enqueued operation; nil for a fresh
	// stream.
	tail locked.Value[*Pending]
}

// NewStream opens a new, independent FIFO stream on the device.
// Streams are cheap: open one per logical sequence of dependent work.
func (d *Device) NewStream() *Stream {
	s := &Stream{dev: d}
	if d.streamDepth > 0 {
		s.depth = make(chan struct{}, d.streamDepth)
	}
	return s
}

// Launch enqueues the launch on the stream and returns its future
// without waiting for execution. The launch runs after every earlier
// operation on this stream has completed (FIFO), concurrently with
// other streams, admitted by the device-global run queue with the
// other work the device is running. ctx bounds this launch: queueing,
// admission and the simulation itself; a cancelled launch's Pending
// returns the context's error and later FIFO entries on this stream
// fail fast (see the failure semantics above).
//
// With WithStreamQueueDepth set, Launch blocks while the stream
// already has that many incomplete launches — backpressure for
// producers that outrun the device — and returns an already-failed
// Pending if ctx is cancelled during the wait. A launch that fails
// exec.Launch.Validate (nil included) also returns an already-failed
// Pending, without joining the FIFO chain or poisoning the stream.
//
// The launch's memory image is written as Device.Run writes it: once, at
// the commit of a successful launch, and not at all by a failed or
// cancelled one, whatever its shape. Launches sharing a global slice
// must be ordered — by one stream or by events — or they race just like
// concurrent Device.Run calls.
func (s *Stream) Launch(ctx context.Context, l *exec.Launch) *Pending {
	p := newPending()
	// A launch whose context is already dead fails before it joins the
	// FIFO chain: deterministic (no race between the depth gate and the
	// cancellation) and poison-free — the stream stays usable. So does a
	// launch that cannot start (nil, no program, an empty grid): a bad
	// argument, like CUDA's invalid-configuration error, is the caller's
	// to fix and says nothing about the work already queued.
	if err := ctx.Err(); err != nil {
		return p.failNow(err)
	}
	if err := l.Validate(); err != nil {
		return p.failNow(err)
	}
	if s.depth != nil {
		select {
		case s.depth <- struct{}{}:
		case <-ctx.Done():
			return p.failNow(ctx.Err())
		}
	}
	s.enqueue(p, "stream launch of "+l.Prog.Name, func() (*sm.Result, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := s.dev.fire(faultinject.SiteStreamDispatch); err != nil {
			return nil, err
		}
		return s.dev.run(ctx, l, s.dev.partition, nil, nil, nil)
	}, ctx, s.depth != nil)
	return p
}

// WaitEvent enqueues a dependency edge: operations enqueued on this
// stream after the call do not start until the work the event recorded
// has completed. A failed recorded prefix poisons this stream exactly
// like a failed launch would.
func (s *Stream) WaitEvent(ev *Event) {
	dep := ev.dep
	s.enqueue(newPending(), "stream event wait", func() (*sm.Result, error) {
		if dep != nil {
			<-dep.done
			if dep.err != nil {
				return nil, fmt.Errorf("device: stream: awaited event's recorded work failed: %w", dep.err)
			}
		}
		return nil, nil
	}, nil, false)
}

// enqueue appends an operation to the stream's FIFO chain and starts
// its goroutine. The goroutine waits for the predecessor, propagates
// poison, then runs fn; ctx (may be nil) aborts the predecessor wait
// early. holdsDepth marks operations that took a launch-queue token. A
// panic anywhere in the operation completes p with a *PanicError —
// poisoning this stream's FIFO successors exactly like an error — while
// the device and its other streams stay fully usable.
func (s *Stream) enqueue(p *Pending, op string, fn func() (*sm.Result, error), ctx context.Context, holdsDepth bool) {
	s.dev.inflight.add()
	var swapped *Pending
	s.tail.Do(func(tail **Pending) { swapped, *tail = *tail, p })
	// A fresh local, never written after the goroutine captures it, so
	// it is captured by value instead of moving to the heap.
	prev := swapped

	go guarded(op, func() {
		// Declared first so it runs last (defers are LIFO): the future
		// must be complete before the inflight count drops, or a
		// concurrent Synchronize could observe an idle device while p is
		// still unresolved.
		defer func() {
			s.dev.inflight.finish()
			if holdsDepth {
				<-s.depth
			}
		}()
		defer func() {
			if v := recover(); v != nil {
				p.complete(nil, newPanicError(op, v))
			}
		}()
		if prev != nil {
			if ctx != nil {
				select {
				case <-prev.done:
				case <-ctx.Done():
					p.complete(nil, watchdogErr(ctx, ctx.Err()))
					return
				}
			} else {
				<-prev.done
			}
			if prev.err != nil {
				p.complete(nil, fmt.Errorf("device: stream: not run: earlier stream operation failed: %w", prev.err))
				return
			}
		}
		p.complete(fn())
	})()
}

// Record captures the stream's current FIFO position: the returned
// event completes when every operation enqueued on the stream before
// the call has completed. Recording an empty stream yields an
// already-complete event.
func (s *Stream) Record() *Event {
	var dep *Pending
	s.tail.Do(func(tail **Pending) { dep = *tail })
	return &Event{dep: dep}
}

// Event marks a point in a stream's FIFO order, for cross-stream
// dependencies (Stream.WaitEvent) and host-side waits (Event.Wait).
type Event struct {
	dep *Pending // nil: recorded on an empty stream, complete immediately
}

// Wait blocks until the recorded work has completed or ctx is done. It
// returns nil on completion, the recorded work's error if that work
// failed, or ctx.Err() on cancellation.
func (e *Event) Wait(ctx context.Context) error {
	if e.dep == nil {
		return nil
	}
	select {
	case <-e.dep.done:
		return e.dep.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Synchronize blocks until every operation in flight on the device —
// stream launches, pending event edges, Run calls, RunSuite entries —
// has completed, or until ctx is done. Work enqueued while Synchronize
// is waiting is waited for too: it returns only after observing a
// fully idle device.
func (d *Device) Synchronize(ctx context.Context) error {
	return d.inflight.wait(ctx)
}

// inflight counts the device's outstanding asynchronous operations and
// lets Synchronize wait for zero.
type inflight struct{ locked.Value[idleCount] }

// idleCount is the outstanding-operation count and the channel that
// signals its return to zero.
type idleCount struct {
	n int
	// idle is created when n leaves 0 and closed when it returns.
	idle chan struct{}
}

func (f *inflight) add() {
	f.Do(func(c *idleCount) {
		if c.n == 0 {
			c.idle = make(chan struct{})
		}
		c.n++
	})
}

func (f *inflight) finish() {
	f.Do(func(c *idleCount) {
		c.n--
		if c.n == 0 {
			close(c.idle)
		}
	})
}

func (f *inflight) wait(ctx context.Context) error {
	for {
		var ch chan struct{}
		f.Do(func(c *idleCount) {
			if c.n > 0 {
				ch = c.idle
			}
		})
		if ch == nil {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
