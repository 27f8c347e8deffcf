package device

import (
	"context"
	"sync/atomic"

	"repro/internal/fingerprint"
	"repro/internal/kernels"
	"repro/internal/locked"
	"repro/internal/replay"
	"repro/internal/sm"
)

// Cross-figure simulation memoization.
//
// # Cache key soundness
//
// A cached result may be returned in place of a simulation only if
// every input that can influence the result is part of the key:
//
//   - the benchmark (its generator and kernel are deterministic, so the
//     name identifies the launch),
//   - the full SM configuration, digested by sm.Config.Fingerprint —
//     reflection-exhaustive, so a future Config field cannot silently
//     alias two different configurations,
//   - whether the entry ran through the wave-partitioned path (the
//     partitioned timing model starts every wave on a cold SM, so its
//     Stats legitimately differ from the whole-grid run),
//   - the modeled memory system (L2 + NoC parameters), and the SM
//     count when it shapes the result (partitioned packing and the
//     shared-clock contention model read it; for unpartitioned
//     flat-memory runs it is normalized away, because those results
//     are SM-count independent by construction).
//
// Host-side parallelism (worker count) is deliberately absent: results
// are bit-identical for every worker count, which the determinism
// suite asserts, so caching across worker settings is sound.
type simKey struct {
	bench       string
	cfgFP       uint64
	partitioned bool
	sms         int
	memsysFP    uint64 // 0 under the flat-latency DRAM model
}

// simKeyFor derives the cache key for one suite entry on this device.
func (d *Device) simKeyFor(b *kernels.Benchmark, partitioned bool) simKey {
	k := simKey{
		bench:       b.Name,
		cfgFP:       d.cfgFP,
		partitioned: partitioned,
		sms:         d.sms,
		memsysFP:    d.memsysFP,
	}
	if !partitioned && !d.memsys {
		k.sms = 1 // result provably SM-count independent; widen the hit range
	}
	return k
}

// SimCache memoizes oracle-validated suite simulations across RunSuite
// passes and across devices (pass one cache to several devices via
// WithSimCache — the experiments runner shares one across all its
// figures). It is safe for concurrent use and deduplicates in-flight
// work: concurrent passes asking for the same cell run it once, the
// rest wait for the result. Cached results are shared — callers must
// treat a SuiteResult.Result served from the cache as read-only.
//
// Entries never expire: a key is only ever associated with one value,
// because every key input is part of the key (see the key comment
// above) and the simulator is deterministic. Memory is bounded by the
// number of distinct (benchmark, configuration) cells actually run.
type SimCache struct {
	results flight[simKey, *sm.Result]

	// traces memoizes recorded per-thread execution traces for the
	// trace-replay engine (WithTraceReplay). The key is deliberately
	// coarser than simKey — just the benchmark and the *functional*
	// fingerprint — because a trace is valid for every timing
	// configuration (sm.Config.FunctionalFingerprint documents the
	// split): one recording serves a whole sweep. A non-replayable trace
	// is still a cached verdict: later points skip straight to full
	// simulation without re-deriving (or re-logging) the reason.
	traces flight[traceKey, *replay.Trace]
}

// traceKey identifies one recorded trace: the benchmark (deterministic
// generator + kernel, so the name pins the launch) and the functional
// configuration fingerprint (the executed program variant).
type traceKey struct {
	bench  string
	funcFP uint64
}

// NewSimCache returns an empty simulation cache.
func NewSimCache() *SimCache {
	return &SimCache{}
}

// Hits returns how many result lookups were served from a completed
// entry.
func (c *SimCache) Hits() uint64 { return c.results.hits.Load() }

// Misses returns how many result lookups started a fill.
func (c *SimCache) Misses() uint64 { return c.results.misses.Load() }

// Len returns the number of completed result entries.
func (c *SimCache) Len() int { return c.results.completed() }

// flight is a single-flight memo table: do returns the value cached for
// a key, or runs fill once and caches what it returns, with concurrent
// callers of the same key waiting for the in-flight fill instead of
// duplicating it.
type flight[K comparable, V any] struct {
	m locked.Value[map[K]*flightEntry[V]] // nil until the first do

	hits, misses atomic.Uint64 // lookups served from a completed entry / that started a fill
}

// flightEntry is one key's fill. val and ok are written once, under the
// owning flight's lock, before done is closed; readers either hold that
// lock or have seen done closed.
type flightEntry[V any] struct {
	done chan struct{} // closed once the fill attempt finished
	val  V
	ok   bool // false if the fill failed (entry already removed)
}

// do returns the cached value for key, or runs fill once and caches its
// value. If the fill fails its error goes to the filling caller and
// waiters retry (or become the next filler): a failed or aborted fill
// is never cached, also when fill panics — the deferred publish below
// runs during the unwind, removing the entry and closing done so
// waiters do not hang on a never-closed channel, while the panic itself
// keeps propagating to the caller's recover boundary for attribution.
// The returned value is shared: callers must not mutate it.
func (f *flight[K, V]) do(ctx context.Context, key K, fill func() (V, error)) (val V, err error) {
	for {
		var e *flightEntry[V]
		var found bool
		f.m.Do(func(m *map[K]*flightEntry[V]) {
			if *m == nil {
				*m = make(map[K]*flightEntry[V])
			}
			if e, found = (*m)[key]; !found {
				e = &flightEntry[V]{done: make(chan struct{})}
				(*m)[key] = e
				f.misses.Add(1)
			}
		})
		if !found {
			// A fresh local for the deferred publish to capture by value:
			// e, written inside the closure above, would move to the heap.
			mine := e
			filled := false
			defer func() {
				f.m.Do(func(m *map[K]*flightEntry[V]) {
					if filled && err == nil {
						mine.val, mine.ok = val, true
					} else {
						delete(*m, key) // let a waiter (or the next pass) retry
					}
					close(mine.done)
				})
			}()
			val, err = fill()
			filled = true
			return val, err
		}
		select {
		case <-e.done: // a finished fill is served even to a cancelled caller
		default:
			select {
			case <-e.done:
			case <-ctx.Done():
				return val, ctx.Err()
			}
		}
		if e.ok {
			f.hits.Add(1)
			return e.val, nil
		}
		// The fill we waited on failed (its filler already removed the
		// entry, unless a new filler replaced it); loop to pick up the
		// replacement or become the new filler ourselves.
	}
}

// completed returns the number of successfully filled entries.
func (f *flight[K, V]) completed() int {
	n := 0
	f.m.Do(func(m *map[K]*flightEntry[V]) {
		for _, e := range *m { //sbwi:unordered pure count; result independent of visit order
			if e.ok {
				n++
			}
		}
	})
	return n
}

// memsysFingerprint digests the modeled memory system parameters for
// the cache key; 0 when the flat-latency DRAM model is in effect.
func (d *Device) memsysFingerprint() uint64 {
	if !d.memsys {
		return 0
	}
	fp := fingerprint.Hash(d.l2cfg, d.noccfg)
	if fp == 0 {
		fp = 1 // reserve 0 for "no memory system modeled"
	}
	return fp
}
