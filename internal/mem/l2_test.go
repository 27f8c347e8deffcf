package mem

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/statcheck"
)

// tinyL2 is a 4-set, 2-way, 2-bank L2 over 128-byte blocks: 2 KB.
func tinyL2() (*L2, Config) {
	mc := Default()
	l2 := NewL2(L2Config{
		Bytes: 2 * 1024, Ways: 2, Banks: 2,
		HitLatency: 10, BytesPerCycle: 32,
	}, mc)
	return l2, mc
}

func TestL2ValidateGeometry(t *testing.T) {
	ok := DefaultL2()
	if err := ok.Validate(128); err != nil {
		t.Fatal(err)
	}
	bad := []L2Config{
		{Bytes: 0, Ways: 1, Banks: 1, BytesPerCycle: 1},
		{Bytes: 1024, Ways: 3, Banks: 1, BytesPerCycle: 1}, // 1024 % (128*3) != 0
		{Bytes: 1024, Ways: 2, Banks: 3, BytesPerCycle: 1}, // 1024 % (128*2*3) != 0
		{Bytes: 1024, Ways: 2, Banks: 2, BytesPerCycle: 0}, // no bandwidth
		{Bytes: 1024, Ways: 2, Banks: 2, HitLatency: -1, BytesPerCycle: 1},
		{Bytes: 1024, Ways: 2, Banks: 2, HitLatency: math.MaxInt64, BytesPerCycle: 1},
		{Bytes: 1024, Ways: 2, Banks: 2, BytesPerCycle: 1e-300}, // a bank busy past 2^20 cycles
		{Bytes: 1024, Ways: 2, Banks: 2, BytesPerCycle: math.NaN()},
	}
	for _, c := range bad {
		if err := c.Validate(128); err == nil {
			t.Errorf("config %+v must be rejected", c)
		}
	}
}

func TestL2MissThenHit(t *testing.T) {
	l2, mc := tinyL2()
	miss := l2.Access(0, 0, false)
	if want := mc.MemLatency; miss != want {
		t.Errorf("cold miss ready at %d, want %d", miss, want)
	}
	hit := l2.Access(miss, 0, false)
	if want := miss + 10; hit != want {
		t.Errorf("hit ready at %d, want %d", hit, want)
	}
	if l2.Stats.Misses != 1 || l2.Stats.Hits != 1 {
		t.Errorf("stats = %+v", l2.Stats)
	}
	if l2.Stats.BytesFromMem != 128 {
		t.Errorf("BytesFromMem = %d", l2.Stats.BytesFromMem)
	}
}

func TestL2MSHRMerge(t *testing.T) {
	l2, _ := tinyL2()
	first := l2.Access(0, 0, false)
	// Second request for the same in-flight block: merged, no new DRAM
	// traffic.
	second := l2.Access(1, 0, false)
	if second != first {
		t.Errorf("merged request ready at %d, want the fill's %d", second, first)
	}
	if l2.Stats.MSHRMerges != 1 || l2.Stats.BytesFromMem != 128 {
		t.Errorf("stats = %+v", l2.Stats)
	}
}

// TestL2MergeAfterEviction: a line evicted while its fill is still in
// flight misses in the tag array, and the re-access merges into the
// outstanding fill instead of spending DRAM bandwidth again.
func TestL2MergeAfterEviction(t *testing.T) {
	l2, _ := tinyL2()
	// 8 sets of 2 ways: blocks 8*128 bytes apart share a set.
	first := l2.Access(0, 0, false)
	l2.Access(1, 8*128, false)
	l2.Access(2, 16*128, false) // evicts block 0, whose fill is in flight
	if l2.Stats.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", l2.Stats.Evictions)
	}
	if again := l2.Access(3, 0, false); again != first {
		t.Errorf("re-access ready at %d, want the outstanding fill's %d", again, first)
	}
	if l2.Stats.MSHRMerges != 1 || l2.Stats.Misses != 4 || l2.Stats.BytesFromMem != 3*128 {
		t.Errorf("stats = %+v, want 1 merge, 4 misses and 3 fills", l2.Stats)
	}
}

func TestL2Eviction(t *testing.T) {
	l2, _ := tinyL2()
	// 4 sets x 2 ways x 2 banks? nsets = 2048/(128*2) = 8 sets total;
	// blocks that map to the same set are 8*128 bytes apart. Fill 3 of
	// them: third fill evicts the LRU first.
	for i, addr := range []uint32{0, 8 * 128, 16 * 128} {
		l2.Access(int64(1000*i), addr, false)
	}
	if l2.Stats.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", l2.Stats.Evictions)
	}
	// The evicted block misses again; the survivor still hits.
	l2.Access(5000, 8*128, false)
	if l2.Stats.Hits != 1 {
		t.Errorf("hits = %d, want 1 (survivor)", l2.Stats.Hits)
	}
}

func TestL2StoreWriteThrough(t *testing.T) {
	l2, _ := tinyL2()
	l2.Access(0, 0, true)
	if l2.Stats.Stores != 1 || l2.Stats.BytesToMem != 128 {
		t.Errorf("stats = %+v", l2.Stats)
	}
	// No-allocate: the next load misses.
	l2.Access(10, 0, false)
	if l2.Stats.Misses != 1 {
		t.Errorf("misses = %d, want 1 (stores must not allocate)", l2.Stats.Misses)
	}
}

func TestL2BankConflicts(t *testing.T) {
	l2, _ := tinyL2()
	// Same bank (bank = block % 2): blocks 0 and 2. Service time is
	// 128/32 = 4 cycles, so the second same-cycle access stalls 4.
	l2.Access(0, 0, false)
	l2.Access(0, 2*128, false)
	if l2.Stats.BankStalls != 4 {
		t.Errorf("BankStalls = %d, want 4", l2.Stats.BankStalls)
	}
	// Different bank: no added stall.
	before := l2.Stats.BankStalls
	l2.Access(0, 1*128, false)
	if l2.Stats.BankStalls != before {
		t.Errorf("cross-bank access added stalls: %d -> %d", before, l2.Stats.BankStalls)
	}
}

func TestL2StatsMerge(t *testing.T) {
	a := L2Stats{Loads: 1, Stores: 2, Hits: 3, Misses: 4, MSHRMerges: 5,
		Evictions: 6, BankStalls: 7, BytesFromMem: 8, BytesToMem: 9}
	b := a
	a.Merge(&b)
	want := L2Stats{Loads: 2, Stores: 4, Hits: 6, Misses: 8, MSHRMerges: 10,
		Evictions: 12, BankStalls: 14, BytesFromMem: 16, BytesToMem: 18}
	if a != want {
		t.Errorf("merged = %+v, want %+v", a, want)
	}
}

func TestL2HitRate(t *testing.T) {
	s := L2Stats{}
	if s.HitRate() != 0 {
		t.Error("zero stats must have zero hit rate")
	}
	s = L2Stats{Loads: 4, Hits: 3}
	if got := s.HitRate(); got != 0.75 {
		t.Errorf("hit rate = %g", got)
	}
}

// lowerCall is one transaction a test Lower observed.
type lowerCall struct {
	Cycle int64
	Block uint32
	Store bool
}

// fixedLower stamps a constant extra latency, for hierarchy routing
// tests.
type fixedLower struct {
	calls []lowerCall
	l     int64
}

func (f *fixedLower) Access(now int64, store bool, block uint32) int64 {
	f.calls = append(f.calls, lowerCall{Cycle: now, Block: block, Store: store})
	return now + f.l
}

func TestHierarchyRoutesThroughLower(t *testing.T) {
	h := NewHierarchy(Default())
	low := &fixedLower{l: 77}
	h.SetLower(low)
	if got := h.Load(0, 0); got != 77 {
		t.Errorf("miss ready = %d, want the lower level's 77", got)
	}
	h.Store(5, 128)
	if len(low.calls) != 2 || low.calls[0].Store || !low.calls[1].Store {
		t.Errorf("lower calls = %+v", low.calls)
	}
	// A hit must not consult the lower level.
	n := len(low.calls)
	if got := h.Load(200, 0); got != 203 {
		t.Errorf("hit ready = %d, want 203", got)
	}
	if len(low.calls) != n {
		t.Error("L1 hit reached the lower level")
	}
}

// TestStoreWriteBuffer pins the finite write buffer in front of a
// modeled lower level: each store occupies an entry until the level
// below drains it, and a store arriving at a full buffer is accepted —
// and retired by the LSU — only when the oldest entry frees. Without a
// lower level (the flat DRAM path) or with StoreQueue 0, stores stay
// ungated as in the seed.
func TestStoreWriteBuffer(t *testing.T) {
	cfg := Default()
	cfg.StoreQueue = 2
	h := NewHierarchy(cfg)
	h.SetLower(&fixedLower{l: 100}) // each store drains 100 cycles after acceptance
	if r := h.Store(0, 0); r != cfg.HitLatency {
		t.Errorf("first store retire = %d, want ungated %d", r, cfg.HitLatency)
	}
	if r := h.Store(0, 128); r != cfg.HitLatency {
		t.Errorf("second store retire = %d, want ungated %d", r, cfg.HitLatency)
	}
	// Buffer full: the third store waits for the first drain at 100.
	if r := h.Store(0, 256); r != 100+cfg.HitLatency {
		t.Errorf("third store retire = %d, want %d (oldest drain + hit latency)", r, 100+cfg.HitLatency)
	}
	if h.Stats.StoreQueueStalls != 100 {
		t.Errorf("StoreQueueStalls = %d, want 100", h.Stats.StoreQueueStalls)
	}

	flat := NewHierarchy(cfg) // no lower level: never gated
	for i := 0; i < 5; i++ {
		if r := flat.Store(0, 0); r != cfg.HitLatency {
			t.Fatalf("flat store %d retire = %d, want %d", i, r, cfg.HitLatency)
		}
	}
	if flat.Stats.StoreQueueStalls != 0 {
		t.Errorf("flat path accumulated %d store-queue stalls", flat.Stats.StoreQueueStalls)
	}

	c0 := Default()
	c0.StoreQueue = 0 // buffer disabled: lower consulted, never gated
	h0 := NewHierarchy(c0)
	h0.SetLower(&fixedLower{l: 500})
	for i := 0; i < 5; i++ {
		if r := h0.Store(0, 0); r != c0.HitLatency {
			t.Fatalf("unbuffered store %d retire = %d, want %d", i, r, c0.HitLatency)
		}
	}
	if h0.Stats.StoreQueueStalls != 0 {
		t.Errorf("StoreQueue 0 accumulated %d stalls", h0.Stats.StoreQueueStalls)
	}
}

// driveL2 presents n seeded accesses at non-decreasing cycles — one in
// four a store, over 256 blocks, bursts that queue on the banks and the
// DRAM port — and returns every ready cycle.
func driveL2(l *L2, seed uint64, n int) []int64 {
	rng := rand.New(rand.NewPCG(seed, 0x12))
	out := make([]int64, n)
	var now int64
	for i := range out {
		now += rng.Int64N(4)
		out[i] = l.Access(now, uint32(rng.IntN(256))*128, rng.IntN(4) == 0)
	}
	return out
}

// TestL2ResetEqualsNew is the L2's row of the Reset ≡ New law
// (statcheck.CheckReset). A use is a seeded stream of accesses, whose
// ready cycles and counters it observes; it ends, abandoned or not,
// with lines valid, fills in flight and the banks and the DRAM port
// booked far ahead of the next use's cycles. Each subtest adds a
// configuration that changes one parameter of the first, and walks
// every ordered pair of the configurations so far.
func TestL2ResetEqualsNew(t *testing.T) {
	mc := Default()
	use := func(l *L2, _ L2Config, seed uint64, _ bool) any { return []any{driveL2(l, seed, 2000), l.Stats} }
	row := statcheck.ResetRow[L2, L2Config]{
		Fresh: func(c L2Config, seed uint64) any { return use(NewL2(c, mc), c, seed, false) },
		Reset: func(l *L2, c L2Config) error { l.Reset(c, mc); return nil },
		Use:   use,
	}
	tiny := L2Config{Bytes: 2 * 1024, Ways: 2, Banks: 2, HitLatency: 10, BytesPerCycle: 32}
	for _, c := range []struct {
		name string
		next func(c *L2Config)
	}{
		{"same", func(*L2Config) {}},
		{"bytes", func(c *L2Config) { c.Bytes = 4 * 1024 }},
		{"ways", func(c *L2Config) { c.Ways = 4 }},
		{"banks", func(c *L2Config) { c.Banks = 4 }},
		{"timing", func(c *L2Config) { c.HitLatency, c.BytesPerCycle = 30, 8 }},
	} {
		next := tiny
		c.next(&next)
		row.Configs = append(row.Configs, next)
		t.Run(c.name, func(t *testing.T) {
			for _, p := range statcheck.CheckReset(row) {
				t.Error(p)
			}
		})
	}
}
