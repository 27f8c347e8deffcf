package device

import (
	"container/heap"
	"context"
	"runtime"
	"sync"
)

// RunQueue is the device-global admission queue: a counting semaphore
// whose waiters are granted slots in descending estimated-cost order
// (longest job first, FIFO on ties) instead of arrival order. Every
// simulation the device performs — a Device.Run launch, a stream
// launch, a RunSuite entry — acquires one slot per contention domain of
// its wave plan (memsys.go: the whole launch, or each CTA wave of a
// flat-partitioned grid, weighted by its share of the launch's CTAs)
// for the duration of that domain's SM simulation, so suite batches and
// interactive streams share a single fairness/cost policy and a single
// host-parallelism bound.
//
// The queue only ever decides *when* a simulation starts, never what
// it computes: results are bit-identical for every slot count and
// every grant order, which the determinism suites assert. A queue is
// private to its device by default; WithRunQueue shares one across
// several devices so their combined load stays bounded by one worker
// pool (the experiments runner does this for all its figures).
type RunQueue struct {
	mu      sync.Mutex
	free    int        //sbwi:guardedby mu
	waiters waiterHeap //sbwi:guardedby mu
	seq     uint64     //sbwi:guardedby mu
	//sbwi:nolock written only in NewRunQueue, immutable afterwards
	slots int
}

// waiter is one goroutine queued for a slot. granted and gone are
// mutable shared state, but their mutex lives in the owning RunQueue —
// a relationship //sbwi:guardedby cannot name across structs.
type waiter struct {
	cost  int64
	seq   uint64
	grant chan struct{}
	//sbwi:nolock guarded by the owning RunQueue's mu, a foreign struct's mutex
	granted bool
	//sbwi:nolock guarded by the owning RunQueue's mu; popped lazily by releaseLocked
	gone bool // abandoned by cancellation; skipped on pop
}

// waiterHeap orders waiters by descending cost, ascending sequence on
// ties (FIFO among equal-cost submissions).
type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if h[i].cost != h[j].cost {
		return h[i].cost > h[j].cost
	}
	return h[i].seq < h[j].seq
}
func (h waiterHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x interface{}) { *h = append(*h, x.(*waiter)) }
func (h *waiterHeap) Pop() interface{} {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}

// NewRunQueue builds a queue with the given number of concurrent
// simulation slots; workers <= 0 means GOMAXPROCS.
func NewRunQueue(workers int) *RunQueue {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &RunQueue{free: workers, slots: workers}
}

// Workers returns the queue's slot count — the bound on concurrently
// running SM simulations.
func (q *RunQueue) Workers() int { return q.slots }

// acquire blocks until the caller is granted a slot or ctx is done.
// Among blocked callers, the one with the highest cost is granted
// first; equal costs are served in acquisition order.
func (q *RunQueue) acquire(ctx context.Context, cost int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	q.mu.Lock()
	if q.free > 0 {
		q.free--
		q.mu.Unlock()
		return nil
	}
	w := &waiter{cost: cost, seq: q.seq, grant: make(chan struct{})}
	q.seq++
	heap.Push(&q.waiters, w)
	q.mu.Unlock()

	select {
	case <-w.grant:
		return nil
	case <-ctx.Done():
		q.mu.Lock()
		if w.granted {
			// The grant raced the cancellation: we own a slot we will
			// not use, so pass it straight on.
			q.releaseLocked()
		} else {
			w.gone = true // popped lazily by releaseLocked
		}
		q.mu.Unlock()
		return ctx.Err()
	}
}

// release returns a slot, handing it to the highest-cost live waiter
// if any.
func (q *RunQueue) release() {
	q.mu.Lock()
	q.releaseLocked()
	q.mu.Unlock()
}

// releaseLocked is the locked helper behind release: every caller
// holds q.mu (release and the grant/cancel race arm of acquire).
func (q *RunQueue) releaseLocked() {
	for q.waiters.Len() > 0 { //sbwi:nolock caller holds q.mu (locked helper of release/acquire)
		w := heap.Pop(&q.waiters).(*waiter) //sbwi:nolock caller holds q.mu (locked helper of release/acquire)
		if w.gone {
			continue
		}
		w.granted = true
		close(w.grant)
		return
	}
	q.free++ //sbwi:nolock caller holds q.mu (locked helper of release/acquire)
}

// waiting returns the number of live queued waiters (test hook).
func (q *RunQueue) waiting() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, w := range q.waiters {
		if !w.gone {
			n++
		}
	}
	return n
}
