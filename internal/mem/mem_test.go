package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/statcheck"
)

func TestGeometry(t *testing.T) {
	h := NewHierarchy(Default())
	// 48K / (128 * 6) = 64 sets.
	if h.arr.nsets != 64 {
		t.Errorf("sets = %d, want 64", h.arr.nsets)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewHierarchy(Config{L1Bytes: 1000, L1Ways: 3, BlockBytes: 128})
}

func TestHitAfterMiss(t *testing.T) {
	h := NewHierarchy(Default())
	r1 := h.Load(0, 0)
	if r1 != 330 {
		t.Errorf("cold miss ready = %d, want 330", r1)
	}
	r2 := h.Load(400, 0)
	if r2 != 403 {
		t.Errorf("hit ready = %d, want 403", r2)
	}
	if h.Stats.Hits != 1 || h.Stats.Misses != 1 {
		t.Errorf("stats = %+v", h.Stats)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	h := NewHierarchy(Default())
	// Two distinct cold misses at the same cycle: the second waits for
	// port bandwidth (128 B / 10 B-per-cycle = 12.8 cycles).
	r1 := h.Load(0, 0)
	r2 := h.Load(0, 128)
	if r1 != 330 {
		t.Errorf("first = %d", r1)
	}
	if r2 != 330+13 { // ceil(12.8) + 330
		t.Errorf("second = %d, want %d", r2, 343)
	}
	// A third, issued later than the port frees, is limited by latency.
	r3 := h.Load(100, 256)
	if r3 != 430 {
		t.Errorf("third = %d, want 430", r3)
	}
}

func TestMSHRMerge(t *testing.T) {
	h := NewHierarchy(Default())
	r1 := h.Load(0, 0)
	// Re-request the same block while the fill is outstanding. The L1
	// already allocated the line, so this is a hit in our model; force
	// the merge path by evicting first via 6 conflicting fills.
	cfgBlocks := uint32(64 * 128) // one full stride = same set
	for i := uint32(1); i <= 6; i++ {
		h.Load(1, i*cfgBlocks)
	}
	r2 := h.Load(2, 0) // evicted, but fill still in flight -> merge
	if r2 != r1 {
		t.Errorf("merged ready = %d, want %d", r2, r1)
	}
	if h.Stats.MSHRMerges != 1 {
		t.Errorf("merges = %d, want 1", h.Stats.MSHRMerges)
	}
}

func TestLRUEviction(t *testing.T) {
	h := NewHierarchy(Default())
	stride := uint32(64 * 128) // same set each time
	// Fill the 6 ways.
	for i := uint32(0); i < 6; i++ {
		h.Load(int64(i), i*stride)
	}
	// Touch block 0 so block 1 is LRU.
	h.Load(100, 0)
	// A 7th block evicts block 1.
	h.Load(101, 6*stride)
	if h.Stats.Evictions != 1 {
		t.Fatalf("evictions = %d", h.Stats.Evictions)
	}
	misses := h.Stats.Misses
	h.Load(5000, 0) // still resident
	if h.Stats.Misses != misses {
		t.Error("block 0 was evicted, want LRU to keep it")
	}
	h.Load(5001, stride) // evicted
	if h.Stats.Misses != misses+1 {
		t.Error("block 1 should have been evicted")
	}
}

func TestStoreWriteThrough(t *testing.T) {
	h := NewHierarchy(Default())
	r := h.Store(0, 0)
	if r != 3 {
		t.Errorf("store retire = %d, want hit latency", r)
	}
	if h.Stats.BytesToMem != 128 {
		t.Errorf("bytes to mem = %d", h.Stats.BytesToMem)
	}
	// Store does not allocate: next load misses.
	h.Load(10, 0)
	if h.Stats.Misses != 1 {
		t.Errorf("store should not allocate; misses = %d", h.Stats.Misses)
	}
	// Store consumes bandwidth: a following load waits for the port.
	h2 := NewHierarchy(Default())
	h2.Store(0, 0)
	r2 := h2.Load(0, 128)
	if r2 != 330+13 {
		t.Errorf("load after store = %d, want 343", r2)
	}
}

// TestSetLowerNilDisarmsStoreBuffer: SetLower(nil) restores the flat
// model, and the flat model never gates stores. A write buffer left
// armed would hold the ninth back-to-back store (StoreQueue 8) until
// the first one's DRAM completion.
func TestSetLowerNilDisarmsStoreBuffer(t *testing.T) {
	cfg := Default()
	h := NewHierarchy(cfg)
	h.SetLower(&fixedLower{l: 100})
	h.SetLower(nil)
	for i := 0; i < cfg.StoreQueue+1; i++ {
		if r := h.Store(0, uint32(i)*128); r != cfg.HitLatency {
			t.Fatalf("store %d retire = %d, want the ungated %d", i+1, r, cfg.HitLatency)
		}
	}
	if h.Stats.StoreQueueStalls != 0 {
		t.Errorf("flat path accumulated %d store-queue stalls", h.Stats.StoreQueueStalls)
	}
}

// TestHierarchyResetEqualsNew is the L1 hierarchy's row of the
// Reset ≡ New law (statcheck.CheckReset), over the default geometry and
// a smaller, a narrower and a finer-grained one. A use observes every
// ready cycle of a seeded sequence of loads and stores, on the flat path
// and then behind a lower level, and the counters; abandoned, it runs
// behind a slow lower level and leaves lines valid, fills and
// store-buffer entries outstanding and the DRAM port booked.
func TestHierarchyResetEqualsNew(t *testing.T) {
	small, narrow, fine := Default(), Default(), Default()
	small.L1Bytes, small.StoreQueue = 12*1024, 2
	narrow.L1Ways = 3
	fine.BlockBytes = 64
	use := func(h *Hierarchy, c Config, seed uint64, abandon bool) any {
		lowers, n := []Lower{nil, &fixedLower{l: 50}}, uint32(3000)
		if abandon {
			lowers, n = []Lower{&fixedLower{l: 900}}, 120
		}
		var ready []int64
		for _, lower := range lowers {
			h.SetLower(lower)
			// More blocks than lines, revisited: hits depend on the set
			// mapping and on which line each fill evicted.
			for i := range n {
				now, addr := int64(i/3), (i+uint32(seed))*2654435761>>16%1200*64&^uint32(c.BlockBytes-1) // hashed, not cyclic: LRU would miss every time
				ready = append(ready, h.Load(now, addr), h.Store(now, addr+64*128))
			}
		}
		return []any{ready, h.Stats}
	}
	for _, p := range statcheck.CheckReset(statcheck.ResetRow[Hierarchy, Config]{
		Fresh:   func(c Config, seed uint64) any { return use(NewHierarchy(c), c, seed, false) },
		Reset:   func(h *Hierarchy, c Config) error { h.Reset(c); return nil },
		Use:     use,
		Configs: []Config{Default(), small, narrow, fine},
	}) {
		t.Error(p)
	}
}

func TestCoalesceUnitStride(t *testing.T) {
	addrs := make([]uint32, 32)
	for i := range addrs {
		addrs[i] = uint32(i * 4)
	}
	mask := uint64(0xFFFFFFFF)
	tx := Coalesce(nil, addrs, mask, 0, 32, 128)
	if len(tx) != 1 || tx[0] != 0 {
		t.Errorf("unit stride tx = %v, want [0]", tx)
	}
}

func TestCoalesceStrided(t *testing.T) {
	addrs := make([]uint32, 32)
	for i := range addrs {
		addrs[i] = uint32(i * 128)
	}
	tx := Coalesce(nil, addrs, 0xFFFFFFFF, 0, 32, 128)
	if len(tx) != 32 {
		t.Errorf("fully divergent tx = %d, want 32", len(tx))
	}
}

func TestCoalesceMaskAndRange(t *testing.T) {
	addrs := make([]uint32, 64)
	for i := range addrs {
		addrs[i] = uint32(i * 4)
	}
	// Only lanes 32..63 (second wave), half masked off.
	tx := Coalesce(nil, addrs, 0xAAAAAAAA00000000, 32, 64, 128)
	// Lanes 33,35,...63 -> addresses 132..252 -> one block (128).
	if len(tx) != 1 || tx[0] != 128 {
		t.Errorf("tx = %v", tx)
	}
	// Empty mask -> no transactions.
	if tx := Coalesce(nil, addrs, 0, 0, 32, 128); len(tx) != 0 {
		t.Errorf("empty mask tx = %v", tx)
	}
}

func TestCoalesceBroadcast(t *testing.T) {
	addrs := make([]uint32, 32)
	for i := range addrs {
		addrs[i] = 256 // all lanes same address
	}
	tx := Coalesce(nil, addrs, 0xFFFFFFFF, 0, 32, 128)
	if len(tx) != 1 || tx[0] != 256 {
		t.Errorf("broadcast tx = %v", tx)
	}
}

// Property: the number of coalesced transactions never exceeds the
// number of active lanes, and every active lane's block is covered.
func TestQuickCoalesceCoverage(t *testing.T) {
	f := func(seed [32]uint16, mask uint32) bool {
		addrs := make([]uint32, 32)
		for i := range addrs {
			addrs[i] = uint32(seed[i]) * 4
		}
		m := uint64(mask)
		tx := Coalesce(nil, addrs, m, 0, 32, 128)
		active := 0
		for lane := 0; lane < 32; lane++ {
			if m&(1<<uint(lane)) == 0 {
				continue
			}
			active++
			found := false
			for _, b := range tx {
				if b == addrs[lane]&^127 {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return len(tx) <= active
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: load ready times are monotonically reasonable — a load can
// never complete before its issue cycle plus the hit latency.
func TestQuickLoadLatencyLowerBound(t *testing.T) {
	h := NewHierarchy(Default())
	now := int64(0)
	f := func(addr16 uint16, dt uint8) bool {
		now += int64(dt)
		ready := h.Load(now, uint32(addr16)*128)
		return ready >= now+h.cfg.HitLatency
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
