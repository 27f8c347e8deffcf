// Package mem models the SM-side memory hierarchy of the paper's
// baseline (Table 2): a 48 KB 6-way set-associative L1 data cache with
// 128-byte blocks and 3-cycle hit latency, in front of a
// throughput-limited constant-latency memory (10 GB/s and 330 ns at
// 1 GHz, following the methodology of Gebhart et al. that the paper
// adopts). The package also provides the LSU's intra-wave coalescer,
// which merges the parallel accesses of a 32-lane wave into unique
// 128-byte transactions; partial conflicts are replayed by the pipeline
// with updated activity masks, one transaction per LSU cycle.
//
// For multi-SM devices the package additionally models a shared,
// banked, MSHR-backed L2 (see L2 and L2Config) that the device layer
// places between every SM's L1 and the DRAM port, reached through the
// interconnect of package noc. An L1 Hierarchy talks to it through the
// Lower interface (SetLower): every miss fill and write-through store
// is presented to the lower level inline, at the cycle it leaves the
// L1, and the returned ready time flows straight back into warp
// wake-up. With a lower level attached the L1 also models a finite
// store write buffer (Config.StoreQueue): a store occupies an entry
// until the level below drains it, and when every entry is busy the
// next store's acceptance — and the LSU that issued it — waits for the
// oldest drain, so store traffic exerts the same bandwidth back-pressure
// as loads. Under the default flat-latency model the lower level and
// the write buffer stay disabled and timing is unchanged from the seed.
package mem

import (
	"fmt"

	"repro/internal/noc"
)

// Config collects the memory-hierarchy parameters.
type Config struct {
	L1Bytes       int   // total L1 capacity
	L1Ways        int   // associativity
	BlockBytes    int   // cache block / memory transaction size
	HitLatency    int64 // L1 hit latency in cycles
	BytesPerCycle float64
	MemLatency    int64 // DRAM round-trip latency in cycles

	// StoreQueue is the number of L1 write-buffer entries in front of a
	// modeled lower level (SetLower): each write-through store occupies
	// an entry until the lower level drains it, and a store arriving at
	// a full buffer is accepted only when the oldest entry frees, which
	// the LSU observes as back-pressure. 0 disables the buffer; the
	// flat-latency DRAM path never gates stores regardless.
	StoreQueue int
}

// Default returns the paper's Table 2 memory configuration.
func Default() Config {
	return Config{
		L1Bytes:       48 * 1024,
		L1Ways:        6,
		BlockBytes:    128,
		HitLatency:    3,
		BytesPerCycle: 10, // 10 GB/s at 1 GHz
		MemLatency:    330,
		StoreQueue:    8,
	}
}

// Validate checks the configuration a Hierarchy is built from: the L1
// must tile into at least one set of L1Ways blocks, the DRAM port must
// pass noc.CheckLink, the hit latency must lie in [0, noc.MaxLatency]
// and the store queue may not be negative.
func (c *Config) Validate() error {
	set := c.BlockBytes * c.L1Ways
	if c.BlockBytes <= 0 || c.L1Ways <= 0 || c.L1Bytes < set || c.L1Bytes%set != 0 {
		return fmt.Errorf("mem: L1 capacity %d does not tile into %d-way sets of %d-byte blocks",
			c.L1Bytes, c.L1Ways, c.BlockBytes)
	}
	if err := noc.CheckLink(c.BlockBytes, c.BytesPerCycle, c.MemLatency); err != nil {
		return fmt.Errorf("mem: DRAM port: %w", err)
	}
	if c.HitLatency < 0 || c.HitLatency > noc.MaxLatency || c.StoreQueue < 0 {
		return fmt.Errorf("mem: L1 hit latency %d outside [0, %d] or negative store queue %d",
			c.HitLatency, int64(noc.MaxLatency), c.StoreQueue)
	}
	return nil
}

// Stats counts memory-system events.
type Stats struct {
	Loads           uint64 // load transactions presented to the L1
	Stores          uint64 // store transactions
	Hits            uint64
	Misses          uint64
	MSHRMerges      uint64 // misses merged into an outstanding fill
	BytesFromMem    uint64
	BytesToMem      uint64
	PeakOutstanding int // max simultaneous outstanding fills
	Evictions       uint64
	Transactions    uint64 // unique transactions after coalescing

	// StoreQueueStalls is the total cycles stores waited for a free
	// write-buffer entry (only possible with a lower level attached and
	// Config.StoreQueue > 0; always zero under the flat DRAM model).
	StoreQueueStalls uint64

	// L2 and NoC hold the shared-memory-system counters when the device
	// models the L1→NoC→L2→DRAM hierarchy (WithL2/WithInterconnect);
	// they stay zero under the default flat-latency DRAM model. For
	// partitioned launches they are filled at the device level from the
	// one shared L2 and crossbar every wave accessed inline, so per-wave
	// Stats carry only the L1-side counters.
	L2  L2Stats
	NoC noc.Stats
}

// Merge folds another hierarchy's statistics into s: counters add,
// PeakOutstanding takes the maximum. Used by the device layer to
// combine per-SM runs deterministically.
func (s *Stats) Merge(o *Stats) {
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.MSHRMerges += o.MSHRMerges
	s.BytesFromMem += o.BytesFromMem
	s.BytesToMem += o.BytesToMem
	if o.PeakOutstanding > s.PeakOutstanding {
		s.PeakOutstanding = o.PeakOutstanding
	}
	s.Evictions += o.Evictions
	s.Transactions += o.Transactions
	s.StoreQueueStalls += o.StoreQueueStalls
	s.L2.Merge(&o.L2)
	s.NoC.Merge(&o.NoC)
}

// Lower services the traffic an L1 sends below itself — load-miss
// fills and write-through stores — in place of the hierarchy's
// built-in flat-latency DRAM port. The device wires an interconnect
// port backed by the shared L2 here. Access is called with the cycle
// the transaction leaves the L1 and returns, for loads, the cycle its
// data is available back at the L1; for stores, the cycle the level
// below has drained the store (the write buffer holds its entry until
// then). A Lower is driven from the simulation goroutine; a shared
// Lower must only ever see one access stream at a time.
type Lower interface {
	Access(now int64, store bool, blockAddr uint32) int64
}

// Hierarchy is one SM's view of the memory system. It is purely a timing
// model: data values live in the launch's memory image.
type Hierarchy struct {
	cfg  Config
	arr  cacheArray
	port noc.Link // flat-latency DRAM port (unused when lower is set)
	mshr mshrTable

	// lower, when non-nil, services miss fills and write-throughs in
	// place of the flat-latency DRAM port (the modeled NoC+L2 path).
	lower Lower

	// storeBusy is the write buffer in front of lower: a ring of
	// drain-completion cycles, one per entry, with storeHead the oldest.
	// Armed (non-empty) only while lower is set and Config.StoreQueue > 0.
	storeBusy []int64
	storeHead int

	Stats Stats
}

// NewHierarchy builds a hierarchy for cfg. It panics on nonsensical
// geometry (internal configuration error, not user input).
func NewHierarchy(cfg Config) *Hierarchy {
	h := new(Hierarchy)
	h.Reset(cfg)
	return h
}

// Reset makes h the cold hierarchy NewHierarchy builds for cfg — no
// line valid, nothing in flight, the DRAM port idle, the default lower
// level, zero Stats — in the tag array it has grown for any earlier
// geometry (an SM's hierarchy is reset for every run it hosts).
func (h *Hierarchy) Reset(cfg Config) {
	h.arr.reset(cfg.L1Bytes, cfg.L1Ways, cfg.BlockBytes)
	h.cfg = cfg
	h.port = noc.NewLink(cfg.BytesPerCycle, cfg.MemLatency)
	h.mshr.reset()
	h.Stats = Stats{}
	h.SetLower(nil)
}

// SetLower routes the L1's miss fills and write-throughs through l
// instead of the flat-latency DRAM port, and arms the store write
// buffer (Config.StoreQueue). Pass nil to restore the default, which
// disarms the buffer again: the flat-latency path never gates stores.
func (h *Hierarchy) SetLower(l Lower) {
	h.lower = l
	switch n := h.cfg.StoreQueue; {
	case l == nil || n <= 0:
		h.storeBusy, h.storeHead = h.storeBusy[:0], 0
	case len(h.storeBusy) == 0:
		if cap(h.storeBusy) < n {
			h.storeBusy = make([]int64, n)
		}
		h.storeBusy = h.storeBusy[:n]
		clear(h.storeBusy)
	}
}

// below sends one transaction to the next level — the configured Lower
// or the built-in DRAM port.
func (h *Hierarchy) below(now int64, store bool, blockAddr uint32) int64 {
	if h.lower != nil {
		return h.lower.Access(now, store, blockAddr)
	}
	return h.port.Reserve(now, h.cfg.BlockBytes)
}

// Load presents one load transaction for blockAddr at cycle now and
// returns the cycle at which its data is available. An access to a line
// whose fill is still in flight waits for the fill (hit-under-fill).
//
//sbwi:hotpath
func (h *Hierarchy) Load(now int64, blockAddr uint32) int64 {
	h.Stats.Loads++
	if l := h.arr.lookup(blockAddr); l != nil {
		hit := now + h.cfg.HitLatency
		if l.ready > hit {
			// Data still in flight from DRAM: merge into the fill.
			h.Stats.MSHRMerges++
			return l.ready
		}
		h.Stats.Hits++
		return hit
	}
	h.Stats.Misses++
	ready, pending, slot := h.mshr.outstanding(blockAddr, now)
	if pending {
		// The line was evicted while its fill is still outstanding:
		// merge into the fill without spending more bandwidth.
		h.Stats.MSHRMerges++
		return ready
	}
	ready = h.below(now, false, blockAddr)
	h.Stats.BytesFromMem += uint64(h.cfg.BlockBytes)
	h.mshr.insert(slot, blockAddr, ready)
	if n := h.mshr.prune(now); n > h.Stats.PeakOutstanding {
		h.Stats.PeakOutstanding = n
	}
	if h.arr.fill(blockAddr, ready) {
		h.Stats.Evictions++
	}
	return ready
}

// Store presents one store transaction (write-through, no-allocate on
// miss; hits refresh the line) and returns the cycle the LSU may retire
// it. Store data does not stall dependents, but the transaction consumes
// memory bandwidth — and, with a lower level attached, a write-buffer
// entry: a store arriving at a full buffer is accepted only once the
// oldest entry drains, which the returned retire cycle carries back to
// the LSU as back-pressure. The flat-latency path never gates stores.
//
//sbwi:hotpath
func (h *Hierarchy) Store(now int64, blockAddr uint32) int64 {
	h.Stats.Stores++
	h.arr.lookup(blockAddr) // refresh LRU if present
	issue := now
	if len(h.storeBusy) > 0 {
		if t := h.storeBusy[h.storeHead]; t > issue {
			h.Stats.StoreQueueStalls += uint64(t - issue)
			issue = t
		}
	}
	drained := h.below(issue, true, blockAddr)
	if len(h.storeBusy) > 0 {
		h.storeBusy[h.storeHead] = drained
		h.storeHead++
		if h.storeHead == len(h.storeBusy) {
			h.storeHead = 0
		}
	}
	h.Stats.BytesToMem += uint64(h.cfg.BlockBytes)
	return issue + h.cfg.HitLatency
}

// Coalesce merges the active lanes' addresses in [lo, hi) into unique
// block-aligned transactions, preserving first-touch order (the order in
// which replays are issued). It appends to dst and returns it.
func Coalesce(dst []uint32, addrs []uint32, mask uint64, lo, hi int, blockBytes uint32) []uint32 {
	for lane := lo; lane < hi && lane < len(addrs); lane++ {
		if mask&(1<<uint(lane)) == 0 {
			continue
		}
		b := addrs[lane] &^ (blockBytes - 1)
		seen := false
		for _, d := range dst {
			if d == b {
				seen = true
				break
			}
		}
		if !seen {
			dst = append(dst, b)
		}
	}
	return dst
}
