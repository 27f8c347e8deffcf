package mem

import (
	"fmt"
	"math/bits"
)

// This file holds the machinery shared by the two cache levels: the
// set-associative tag array with LRU replacement and hit-under-fill
// ready times, and the per-block MSHR table. Hierarchy (the per-SM L1)
// and L2 (the device-shared second level) differ only in geometry,
// banking and statistics, so these semantics live here exactly once;
// the bandwidth-limited service queue behind DRAM ports and L2 banks
// is likewise a single primitive, noc.Link.

type line struct {
	tag   uint32
	valid bool
	lru   uint64
	ready int64 // cycle the fill data actually arrives (hit-under-fill)
}

// cacheArray is a set-associative tag store.
type cacheArray struct {
	sets  [][]line
	lines []line // the backing store sets slices
	nsets uint32
	block uint32
	tick  uint64 // LRU clock
}

// reset makes c an empty tag store of the given geometry — every line
// invalid, the LRU clock restarted — in the storage it has grown for
// any earlier geometry. It panics on geometry that does not tile
// (internal configuration error — user input is validated by the
// config types before construction).
func (c *cacheArray) reset(totalBytes, ways, blockBytes int) {
	if blockBytes <= 0 || ways <= 0 || totalBytes%(blockBytes*ways) != 0 {
		panic(fmt.Sprintf("mem: invalid cache geometry %dB / %d ways / %dB blocks",
			totalBytes, ways, blockBytes))
	}
	nsets := totalBytes / (blockBytes * ways)
	if cap(c.lines) < nsets*ways {
		c.lines = make([]line, nsets*ways)
	}
	if cap(c.sets) < nsets {
		c.sets = make([][]line, nsets)
	}
	c.lines, c.sets = c.lines[:nsets*ways], c.sets[:nsets]
	clear(c.lines)
	for i := range c.sets {
		c.sets[i] = c.lines[i*ways : (i+1)*ways]
	}
	c.nsets, c.block, c.tick = uint32(nsets), uint32(blockBytes), 0
}

func (c *cacheArray) setIndex(blockAddr uint32) uint32 {
	return (blockAddr / c.block) % c.nsets
}

func (c *cacheArray) tag(blockAddr uint32) uint32 {
	return blockAddr / c.block / c.nsets
}

// lookup probes the array and refreshes LRU on hit.
func (c *cacheArray) lookup(blockAddr uint32) *line {
	c.tick++
	set := c.sets[c.setIndex(blockAddr)]
	tag := c.tag(blockAddr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.tick
			return &set[i]
		}
	}
	return nil
}

// fill allocates blockAddr, evicting LRU, and reports whether a valid
// line was displaced. ready is the cycle the fill data arrives;
// accesses before then are hits-under-fill and wait for it.
func (c *cacheArray) fill(blockAddr uint32, ready int64) (evicted bool) {
	c.tick++
	set := c.sets[c.setIndex(blockAddr)]
	tag := c.tag(blockAddr)
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	evicted = set[victim].valid
	set[victim] = line{tag: tag, valid: true, lru: c.tick, ready: ready}
	return evicted
}

// mshrTable tracks outstanding fills by block address, for the L1
// (Hierarchy) and the L2 alike. It is not small: walk_stats.golden
// records 256–500 fills in flight at once in one L1 (DWTHaar1D,
// Histogram) and 512 in the L2 behind four SMs, so nothing here scans.
// The fills form a binary min-heap on ready — prune pops the expired
// ones off its top — and an open-addressing index (linear probing,
// load ≤ ½, backward-shift deletion) finds a block's heap position in
// one probe.
//
// The answers are the linear scan's by construction, whatever order
// ready arrives in (behind a Lower it is not monotone in insertion
// order) and whatever now the caller passes: the table holds one entry
// per block, insert replaces it, and prune(now) drops exactly the
// entries with ready <= now, so after every call the set of (block,
// ready) entries — hence outstanding's answer and prune's count, which
// becomes Stats.PeakOutstanding — equals the scan's
// (TestMSHRMatchesLinearScan).
type mshrTable struct {
	heap  []mshrFill
	index []int32 // heap position + 1 per slot, 0 empty; len 0 or a power of two
	shift uint8   // 64 - log2(len(index)): home keeps the hash's top bits
}

type mshrFill struct {
	ready int64
	block uint32
	at    int32 // the index slot holding this fill's heap position
}

// reset empties the table, keeping both arrays for the next run.
//
//sbwi:hotpath
func (m *mshrTable) reset() {
	m.heap = m.heap[:0]
	clear(m.index)
}

// home is blockAddr's preferred index slot (Fibonacci hashing of the
// whole address: block sizes vary, so no low bits are assumed zero).
//
//sbwi:hotpath
func (m *mshrTable) home(blockAddr uint32) int {
	return int(uint64(blockAddr) * 0x9E3779B97F4A7C15 >> m.shift)
}

// outstanding looks up blockAddr's fill: its ready cycle, whether that
// is still pending at cycle now, and the index slot insert takes for
// the block — the one holding its entry, or the empty slot a new entry
// would fill (-1 before the table's first fill).
//
//sbwi:hotpath
func (m *mshrTable) outstanding(blockAddr uint32, now int64) (ready int64, pending bool, slot int) {
	if len(m.index) == 0 {
		return 0, false, -1
	}
	mask := len(m.index) - 1
	for slot = m.home(blockAddr); ; slot = (slot + 1) & mask {
		p := m.index[slot]
		if p == 0 {
			return 0, false, slot
		}
		if f := &m.heap[p-1]; f.block == blockAddr {
			return f.ready, f.ready > now, slot
		}
	}
}

// insert records blockAddr's fill, replacing any stale entry for the
// block; slot is what outstanding returned for it, with no insert or
// prune in between.
//
//sbwi:hotpath
func (m *mshrTable) insert(slot int, blockAddr uint32, ready int64) {
	if slot >= 0 && m.index[slot] != 0 {
		// A re-filled block's ready may move either way.
		i := int(m.index[slot]) - 1
		m.heap[i].ready = ready
		if !m.up(i) {
			m.down(i)
		}
		return
	}
	if 2*(len(m.heap)+1) > len(m.index) {
		m.grow()
		_, _, slot = m.outstanding(blockAddr, 0)
	}
	n := len(m.heap)
	m.heap = m.heap[:n+1] // grow keeps cap(heap) = len(index)/2
	m.heap[n] = mshrFill{ready: ready, block: blockAddr, at: int32(slot)}
	m.index[slot] = int32(n + 1)
	m.up(n)
}

// prune drops completed fills and returns how many remain in flight.
//
//sbwi:hotpath
func (m *mshrTable) prune(now int64) int {
	for len(m.heap) > 0 && m.heap[0].ready <= now {
		m.unindex(int(m.heap[0].at))
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap = m.heap[:last]
		if last > 0 {
			m.down(0)
		}
	}
	return len(m.heap)
}

// put places f at heap position i and points its index slot there.
//
//sbwi:hotpath
func (m *mshrTable) put(i int, f mshrFill) {
	m.heap[i] = f
	m.index[f.at] = int32(i + 1)
}

// up sifts heap[i] toward the root and reports whether it moved.
//
//sbwi:hotpath
func (m *mshrTable) up(i int) bool {
	f, from := m.heap[i], i
	for i > 0 {
		p := (i - 1) / 2
		if m.heap[p].ready <= f.ready {
			break
		}
		m.put(i, m.heap[p])
		i = p
	}
	m.put(i, f)
	return i != from
}

// down sifts heap[i] toward the leaves.
//
//sbwi:hotpath
func (m *mshrTable) down(i int) {
	f, n := m.heap[i], len(m.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && m.heap[c+1].ready < m.heap[c].ready {
			c++
		}
		if f.ready <= m.heap[c].ready {
			break
		}
		m.put(i, m.heap[c])
		i = c
	}
	m.put(i, f)
}

// unindex empties index slot i, shifting the rest of its probe run back
// so that every entry stays reachable from its home slot.
//
//sbwi:hotpath
func (m *mshrTable) unindex(i int) {
	mask := len(m.index) - 1
	for j := (i + 1) & mask; m.index[j] != 0; j = (j + 1) & mask {
		f := &m.heap[m.index[j]-1]
		// The entry at j may move into the hole only if its home is not
		// cyclically after i: its probe distance reaches back that far.
		if (j-m.home(f.block))&mask >= (j-i)&mask {
			m.index[i], f.at = m.index[j], int32(i)
			i = j
		}
	}
	m.index[i] = 0
}

// grow doubles the index (16 slots at first), gives the heap capacity
// for as many fills as the index may hold, and re-files every fill.
//
//sbwi:hotpath
func (m *mshrTable) grow() {
	n := max(16, 2*len(m.index))
	heap, index := make([]mshrFill, len(m.heap), n/2), make([]int32, n) //sbwi:alloc-ok the table's only allocation: doubling, so a run grows it O(log peak) times, and reset keeps it
	copy(heap, m.heap)
	m.heap, m.index, m.shift = heap, index, uint8(64-bits.TrailingZeros(uint(n)))
	for p := range m.heap {
		_, _, i := m.outstanding(m.heap[p].block, 0) // blocks are unique: the probe ends at an empty slot
		m.index[i], m.heap[p].at = int32(p+1), int32(i)
	}
}
