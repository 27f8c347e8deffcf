package device

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sm"
)

// RunQueue bounds how many SM simulations run at once: a counting
// semaphore, one slot per contention domain of a wave plan (memsys.go)
// for as long as that domain simulates, granted first-come. Ordering is
// not its job — RunSuite decides who asks first (device.go). Each slot
// carries what the last domain that finished cleanly on it built: its
// SM shells, one sm.Runner per SM, and — once a memsys domain has run
// there — the shared L2 and crossbar. The next domain re-arms them
// (Runner.Reset, L2.Reset, Crossbar.Reset, each rebuilding what does
// not fit its device) instead of building them from nothing; a domain
// that fails in any way hands back nothing, so no state of a failed
// launch is ever reused. Only the slot's holder touches what it
// carries, which bounds reuse by the slot count without a lock. The
// queue never changes what a simulation computes: results are
// bit-identical for every slot count and whatever a slot served before.
// A queue is private to its device unless WithRunQueue shares one, so
// several devices' combined load stays bounded by one worker pool — and
// their launches share what the slots carry.
type RunQueue struct {
	slots chan slot // the free slots, each with what it carries
}

// slot is what one run-queue slot carries from holder to holder; the
// zero slot carries nothing.
type slot struct {
	shells []*sm.Runner
	l2     *mem.L2
	xbar   *noc.Crossbar
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
	q := &RunQueue{slots: make(chan slot, workers)}
	for i := 0; i < workers; i++ {
		q.slots <- slot{}
	}
	return q
}

// Workers returns the queue's slot count — the bound on concurrently
// running SM simulations.
func (q *RunQueue) Workers() int { return cap(q.slots) }

// acquire blocks until a slot is free or ctx is done, and returns what
// the slot carries; a context that is already done never takes a slot.
func (q *RunQueue) acquire(ctx context.Context) (slot, error) {
	if err := ctx.Err(); err != nil {
		return slot{}, err
	}
	select {
	case s := <-q.slots:
		return s, nil
	case <-ctx.Done():
		return slot{}, ctx.Err()
	}
}

// release returns the caller's slot, leaving s on it for the next
// holder; the zero slot after anything but a clean run.
func (q *RunQueue) release(s slot) { q.slots <- s }
