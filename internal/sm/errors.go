package sm

import (
	"context"
	"errors"
	"fmt"
)

// The typed failure surface of a simulation: runs that exceed their
// modeled-cycle bound (livelock) and runs aborted by the device layer's
// wall-clock watchdog. Both carry the dumpState snapshot of the SM at
// the moment of the abort, so a stuck kernel is diagnosable from the
// error alone — per-warp PCs, barrier states and the CTA frontier —
// without re-running anything.

// ErrLaunchTimeout is the sentinel cause of a wall-clock watchdog
// abort. The device layer cancels a launch's context with a cause
// wrapping it; errors.Is(err, ErrLaunchTimeout) identifies a timed-out
// launch through every layer of wrapping, including the *TimeoutError
// Runner.Diagnose builds around it.
var ErrLaunchTimeout = errors.New("launch exceeded its wall-clock watchdog")

// LivelockError reports a run that exceeded its modeled-cycle bound
// (Config.MaxCycles): the kernel is livelocked, or the bound is too
// tight for it. State holds the dumpState partial-state snapshot.
type LivelockError struct {
	Prog  string
	Arch  Arch
	Limit int64 // the cycle bound that was exceeded
	Cycle int64 // the modeled cycle at abort
	State string
}

func (e *LivelockError) Error() string {
	return fmt.Sprintf("sm: %s on %s: cycle limit %d exceeded at cycle %d (livelock?)\n%s",
		e.Prog, e.Arch, e.Limit, e.Cycle, e.State)
}

// TimeoutError reports a run aborted by the device layer's wall-clock
// watchdog (WithLaunchTimeout). Cycle and State are the partial
// simulation state at the abort — unlike LivelockError's modeled-cycle
// bound, the watchdog fires on host time, so the snapshot shows
// wherever the simulation happened to be.
type TimeoutError struct {
	Prog  string
	Arch  Arch
	Cycle int64
	State string
	cause error // the watchdog cause, wrapping ErrLaunchTimeout
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("sm: %s on %s: %v at cycle %d; partial state:\n%s",
		e.Prog, e.Arch, e.cause, e.Cycle, e.State)
}

// Unwrap exposes the watchdog cause, so errors.Is(err,
// ErrLaunchTimeout) holds.
func (e *TimeoutError) Unwrap() error { return e.cause }

// abortErr converts an observed context abort into the run's error: a
// watchdog cancellation (cause wrapping ErrLaunchTimeout) becomes a
// TimeoutError carrying the partial-state diagnostic; anything else
// stays the plain context error, exactly as before the watchdog
// existed.
func (s *SM) abortErr(ctx context.Context) error {
	if cause := context.Cause(ctx); cause != nil && errors.Is(cause, ErrLaunchTimeout) {
		return &TimeoutError{
			Prog:  s.prog.Name,
			Arch:  s.cfg.Arch,
			Cycle: s.now,
			State: s.dumpState(),
			cause: cause,
		}
	}
	return ctx.Err()
}
