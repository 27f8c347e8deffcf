package device

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/locked"
	"repro/internal/mem"
	"repro/internal/noc"
)

// RunQueue bounds how many SM simulations run at once: a counting
// semaphore, one slot per contention domain of a wave plan (memsys.go)
// for as long as that domain simulates, granted first-come. Ordering is
// not its job — RunSuite decides who asks first (device.go). A slot
// carries nothing. What a domain re-arms instead of building — its SM
// shells, wave buffers and replay cursors, and a memsys domain's L2 and
// crossbar — is a spare it takes from the queue's store once it holds a
// slot (spareStore). The queue never changes what a simulation
// computes: results are bit-identical for every slot count and whatever
// a spare served before. A queue is private to its device unless
// WithRunQueue shares one, so several devices' combined load stays
// bounded by one worker pool; every queue NewRunQueue builds draws on
// the one process-wide store, so a device built for each point of a
// sweep re-arms what the last point's device left.
type RunQueue struct {
	slots  chan struct{} // one token per free slot
	spares *spareStore
}

// NewRunQueue builds a queue with the given number of concurrent
// simulation slots, at most MaxWorkers; workers <= 0 means GOMAXPROCS.
// It panics past MaxWorkers: device.New and the experiments runner
// reject such a count before they build a queue.
func NewRunQueue(workers int) *RunQueue { return newRunQueue(workers, &processSpares) }

// newRunQueue builds a queue over the given store; tests give a queue
// a store of its own to observe it, or to build a device that re-arms
// nothing another device left.
func newRunQueue(workers int, spares *spareStore) *RunQueue {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > MaxWorkers {
		panic(fmt.Sprintf("device: %d run-queue slots exceed MaxWorkers (%d)", workers, MaxWorkers))
	}
	q := &RunQueue{slots: make(chan struct{}, workers), spares: spares}
	for i := 0; i < workers; i++ {
		q.slots <- struct{}{}
	}
	return q
}

// Workers returns the queue's slot count — the bound on concurrently
// running SM simulations.
func (q *RunQueue) Workers() int { return cap(q.slots) }

// acquire blocks until a slot is free or ctx is done; a context that is
// already done never takes a slot. A free slot is taken without asking
// ctx for its Done channel, which a cancellable context allocates on
// first use.
func (q *RunQueue) acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case <-q.slots:
		return nil
	default:
	}
	select {
	case <-q.slots:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns the caller's slot.
func (q *RunQueue) release() { q.slots <- struct{}{} }

// spare is the storage one contention domain re-arms instead of
// building: an smSlot per SM it has run — its shell, wave buffer and
// replay cursors — and, once a memsys domain has run on it, the shared
// L2 and crossbar. Each re-arm (Runner.Reset, L2.Reset, Crossbar.Reset,
// Session.Reset) keeps its storage across configurations, so a spare
// serves any device. The zero spare holds nothing.
type spare struct {
	slots []smSlot
	l2    *mem.L2
	xbar  *noc.Crossbar
}

// spareStore is a stack of spares, at most GOMAXPROCS deep. A domain
// takes one once it holds a run-queue slot, and gives it back only from
// its clean return, after reading the L2 and crossbar counters: a
// domain that fails, is cancelled or panics gives nothing back, so no
// state of a failed launch is ever reused. A spare has one holder at a
// time, which touches what it holds without a lock.
type spareStore struct {
	free locked.Value[[]*spare]
}

// processSpares is the store of every queue NewRunQueue builds.
var processSpares spareStore

// take pops the top spare, or returns a new one when the store is empty.
func (st *spareStore) take() *spare {
	var sp *spare
	st.free.Do(func(free *[]*spare) {
		if n := len(*free); n > 0 {
			sp, (*free)[n-1], *free = (*free)[n-1], nil, (*free)[:n-1]
		}
	})
	if sp == nil {
		sp = new(spare)
	}
	return sp
}

// give pushes sp, unless the store already holds GOMAXPROCS spares.
func (st *spareStore) give(sp *spare) {
	st.free.Do(func(free *[]*spare) {
		if len(*free) < runtime.GOMAXPROCS(0) {
			*free = append(*free, sp)
		}
	})
}
