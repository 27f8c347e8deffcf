package device

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/sm"
)

// RunQueue bounds how many SM simulations run at once: a counting
// semaphore, one slot per contention domain of a wave plan (memsys.go)
// for as long as that domain simulates, granted first-come. Ordering is
// not its job — RunSuite decides who asks first (device.go). Each slot
// carries the SM shells of the last domain that finished cleanly on it,
// one sm.Runner per SM, and the next domain re-arms them (Runner.Reset)
// instead of building SMs from nothing; a domain that fails in any way
// hands back none, so no state of a failed launch is ever reused. Only
// the slot's holder touches its shells, which bounds reuse by the slot
// count without a lock. The queue never changes what a simulation
// computes: results are bit-identical for every slot count and whatever
// a slot served before. A queue is private to its device unless
// WithRunQueue shares one, so several devices' combined load stays
// bounded by one worker pool — and their launches share its shells.
type RunQueue struct {
	slots chan []*sm.Runner // the free slots, each with its shells
}

// NewRunQueue builds a queue with the given number of concurrent
// simulation slots, at most MaxWorkers; workers <= 0 means GOMAXPROCS.
// It panics past MaxWorkers: device.New and the experiments runner
// reject such a count before they build a queue.
func NewRunQueue(workers int) *RunQueue {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > MaxWorkers {
		panic(fmt.Sprintf("device: %d run-queue slots exceed MaxWorkers (%d)", workers, MaxWorkers))
	}
	q := &RunQueue{slots: make(chan []*sm.Runner, workers)}
	for i := 0; i < workers; i++ {
		q.slots <- nil
	}
	return q
}

// Workers returns the queue's slot count — the bound on concurrently
// running SM simulations.
func (q *RunQueue) Workers() int { return cap(q.slots) }

// acquire blocks until a slot is free or ctx is done, and returns the
// slot's shells (nil when it has none); a context that is already done
// never takes a slot.
func (q *RunQueue) acquire(ctx context.Context) ([]*sm.Runner, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case shells := <-q.slots:
		return shells, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// release returns the caller's slot, leaving shells on it for the next
// holder; nil after anything but a clean run.
func (q *RunQueue) release(shells []*sm.Runner) { q.slots <- shells }
