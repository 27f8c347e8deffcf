package device

import (
	"context"
	"runtime"
)

// RunQueue bounds how many SM simulations run at once: a counting
// semaphore, one slot per contention domain of a wave plan (memsys.go)
// for as long as that domain simulates, granted first-come. Ordering is
// not its job — RunSuite decides who asks first (device.go). It never
// changes what a simulation computes: results are bit-identical for
// every slot count. A queue is private to its device unless
// WithRunQueue shares one, so several devices' combined load stays
// bounded by one worker pool.
type RunQueue struct {
	slots chan struct{} // one token per running simulation
}

// NewRunQueue builds a queue with the given number of concurrent
// simulation slots; workers <= 0 means GOMAXPROCS.
func NewRunQueue(workers int) *RunQueue {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &RunQueue{slots: make(chan struct{}, workers)}
}

// Workers returns the queue's slot count — the bound on concurrently
// running SM simulations.
func (q *RunQueue) Workers() int { return cap(q.slots) }

// acquire blocks until a slot is free or ctx is done; a context that is
// already done never takes a slot.
func (q *RunQueue) acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case q.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns the caller's slot.
func (q *RunQueue) release() { <-q.slots }
