package sm

import (
	"context"

	"repro/internal/exec"
)

// Runner exposes a single SM's simulation as an incrementally steppable
// process. RunRangeOpts steps one to completion; the device layer
// interleaves several against one shared memory-system clock: its driver
// repeatedly steps the SM whose local clock maps to the earliest device
// time, and each Step's memory traffic enters the shared L2/NoC (through
// RunOpts.Lower) at exactly that moment. A Runner is not safe for
// concurrent use; the device drives every Runner sharing a lower level
// from one goroutine, which is what makes the shared access order — and
// therefore all contention counters — a pure function of the
// configuration. The zero Runner is ready for Reset, and a Runner may be
// Reset again and again: the device keeps one per worker slot and SM and
// re-arms it for every wave instead of building a new one.
type Runner struct {
	s   SM
	max int64
}

// NewRunner builds a steppable SM over the CTA sub-range
// [ctaStart, ctaEnd), validating the configuration and launch exactly
// like RunRangeOpts: it is Reset on a zero Runner.
func NewRunner(cfg Config, l *exec.Launch, ctaStart, ctaEnd int, opts RunOpts) (*Runner, error) {
	r := new(Runner)
	if err := r.Reset(cfg, l, ctaStart, ctaEnd, opts); err != nil {
		return nil, err
	}
	return r, nil
}

// Now returns the SM's local clock. During idle spans the fast-forward
// inside Step advances it without emitting memory traffic, so the
// device-time of the *next* possible access never precedes offset+Now().
//
//sbwi:hotpath
func (r *Runner) Now() int64 { return r.s.now }

// Step advances the simulation by one front-end iteration (one
// scheduling cycle plus any idle fast-forward). It reports completion;
// a Step after completion changes nothing and reports it again.
//
//sbwi:hotpath
func (r *Runner) Step() (bool, error) {
	done, err := r.s.step(r.max)
	if done {
		if err := r.s.finishReplay(); err != nil {
			return false, err
		}
	}
	return done, err
}

// Result finalizes and returns the run statistics. Call once, after
// Done: it ends the run, and the Runner is good only for Reset after it.
func (r *Runner) Result() *Result { return r.s.result() }

// Diagnose converts a context abort observed between Steps into the
// run's typed error: whoever drives the Runner (RunRangeOpts, the device
// layer's wave driver) polls the context itself, and on abort calls
// Diagnose so a watchdog cancellation yields a TimeoutError with this
// SM's partial-state snapshot instead of a bare context error.
func (r *Runner) Diagnose(ctx context.Context) error { return r.s.abortErr(ctx) }
