package device

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"time"

	"repro/internal/faultinject"
	"repro/internal/sm"
)

// Panic isolation and the wall-clock watchdog: the hardened failure
// plane of the device layer.
//
// # Panic isolation
//
// A panicking kernel, a misuse of the option surface, or a bug in any
// layer below must fail only the launch (or stream, or suite entry)
// that triggered it — never the Device, the RunQueue or sibling
// streams. Every goroutine the device spawns therefore runs a
// guarded(...) body (enforced statically by the goguard analyzer in
// internal/lint), and every spawn site recovers panics inline, converting
// them into a typed *PanicError before its completion bookkeeping runs:
// a Pending must be completed before the inflight counter drops, or
// Synchronize could observe an idle device while a future is still
// unresolved. guarded itself is the last-resort backstop for a panic
// escaping a site's own recovery (a bug in the recovery path): it keeps
// the process alive and reports to stderr. The spare a contention
// domain was simulating on — SM shells, wave buffers, L2 and crossbar —
// dies with it: runDomain gives it back to the spare store only from
// its clean return (memsys.go).
//
// # Watchdog
//
// WithLaunchTimeout(d) bounds each launch's host wall-clock time —
// queueing, admission and simulation. The watchdog cancels the launch's
// context with a cause wrapping sm.ErrLaunchTimeout; the wave engine's
// step loop converts that cause (via sm.Runner.Diagnose) into a
// *sm.TimeoutError carrying the dumpState partial-state snapshot.
// Wall-clock state never reaches modeled cycles: the watchdog can only
// abort a simulation, not change what it computes.

// PanicError is a panic converted to an error at a device goroutine
// boundary: what was running (including the launch identity when
// known), the recovered value, and the panicking goroutine's stack.
type PanicError struct {
	Op    string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("device: panic in %s: %v", e.Op, e.Value)
}

// Unwrap exposes a panic value that was itself an error, so errors.Is/
// errors.As — and faultinject.IsInjected — see through the
// panic-to-error conversion.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

func newPanicError(op string, v any) *PanicError {
	return &PanicError{Op: op, Value: v, Stack: debug.Stack()}
}

// guarded wraps fn as a panic-isolated goroutine body; every device
// goroutine spawns one:
//
//	go guarded(op, fn)()
//
// The form is enforced by the goguard analyzer (internal/lint). Every spawn
// site recovers inline within fn, ordered before its completion
// bookkeeping (see the file comment); guarded is the backstop for a
// panic escaping that recovery: it reports to stderr and the process
// survives.
func guarded(op string, fn func()) func() {
	return func() {
		defer func() {
			if v := recover(); v != nil {
				fmt.Fprintf(os.Stderr, "device: unhandled panic in %s: %v\n%s", op, v, debug.Stack())
			}
		}()
		fn()
	}
}

// safeRun invokes fn with panics converted to a *PanicError result, so
// a panicking suite entry fails only itself while its worker goroutine
// keeps claiming the rest of the batch.
func safeRun(op string, fn func() (*sm.Result, error)) (res *sm.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, newPanicError(op, v)
		}
	}()
	return fn()
}

// WithFaultPlan arms the device with a compiled fault-injection
// schedule (faultinject.NewPlan(seed, spec)): every instrumented site —
// queue acquire, stream dispatch, suite worker, wave merge, cache fill,
// memory access, replay fallback — fires the plan on each pass. Nil
// (the default) disarms injection entirely; a disarmed site costs one
// nil check. This is chaos-test infrastructure: the hardening it
// exercises is always on, the faults are strictly opt-in.
func WithFaultPlan(p *faultinject.Plan) Option {
	return func(s *settings) { s.faults = p }
}

// WithLaunchTimeout bounds each launch's host wall-clock time —
// queueing, admission and simulation together. A launch exceeding d is
// aborted with a *sm.TimeoutError (errors.Is(err, sm.ErrLaunchTimeout))
// carrying a partial-state snapshot of the stuck SM, instead of hanging
// its Pending and every Synchronize behind it. 0 (the default) means no
// watchdog. The watchdog never changes what a surviving simulation
// computes — wall-clock time can only abort a run, not retime it.
func WithLaunchTimeout(d time.Duration) Option {
	return func(s *settings) { s.launchTimeout = d }
}

// fire triggers the device's fault plan at site; nil plan, nil error.
func (d *Device) fire(site faultinject.Site) error {
	if d.faults == nil {
		return nil
	}
	return d.faults.Fire(site)
}

// acquireSlot takes one run-queue slot for a simulation, with the
// queue-acquire fault site in front and watchdog-cause mapping behind:
// a slot wait aborted by the launch watchdog reports the timeout, not a
// bare cancellation.
func (d *Device) acquireSlot(ctx context.Context) error {
	if err := d.fire(faultinject.SiteQueueAcquire); err != nil {
		return err
	}
	return watchdogErr(ctx, d.queue.acquire(ctx))
}

// watchdogErr upgrades a bare context error to the context's
// cancellation cause when that cause is the launch watchdog, so a
// launch that timed out before reaching an SM (still queued, still
// waiting on a predecessor) keeps its timeout identity.
func watchdogErr(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if cause := context.Cause(ctx); cause != nil && errors.Is(cause, sm.ErrLaunchTimeout) {
		return cause
	}
	return err
}

// watchdogCtx derives a launch's watchdog context: after d of host
// wall-clock time it cancels the context with a cause wrapping
// sm.ErrLaunchTimeout, which the wave engine's step loop converts (via
// Runner.Diagnose) into a partial-state *sm.TimeoutError. stop releases
// the timer and must be deferred.
func watchdogCtx(ctx context.Context, d time.Duration) (context.Context, func()) {
	ctx, cancel := context.WithCancelCause(ctx)
	//sbwi:wallclock-ok the watchdog bounds host wall-clock only; it aborts a launch, it never reaches modeled cycles
	t := time.AfterFunc(d, func() {
		cancel(fmt.Errorf("device: launch ran longer than the %v watchdog: %w", d, sm.ErrLaunchTimeout))
	})
	return ctx, func() {
		t.Stop()
		cancel(nil)
	}
}

// degradef reports a degradation event — work the device completed by
// falling back instead of failing — to
// the diagnostics log (WithReplayLog; default stderr). Degradations are
// always loud: a silent fallback would be indistinguishable from a
// clean result produced by the intended path. Concurrent suite workers
// degrade independently, so writes are serialized here rather than
// asking every Writer to be concurrency-safe.
func (d *Device) degradef(format string, args ...any) {
	d.diag.Do(func(w *io.Writer) { fmt.Fprintf(*w, format+"\n", args...) })
}
