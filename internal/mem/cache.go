package mem

import (
	"fmt"
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

// newCacheArray builds the tag store, panicking on geometry that does
// not tile (internal configuration error — user input is validated by
// the config types before construction).
func newCacheArray(totalBytes, ways, blockBytes int) cacheArray {
	if blockBytes <= 0 || ways <= 0 || totalBytes%(blockBytes*ways) != 0 {
		panic(fmt.Sprintf("mem: invalid cache geometry %dB / %d ways / %dB blocks",
			totalBytes, ways, blockBytes))
	}
	nsets := totalBytes / (blockBytes * ways)
	sets := make([][]line, nsets)
	lines := make([]line, nsets*ways)
	for i := range sets {
		sets[i] = lines[i*ways : (i+1)*ways]
	}
	return cacheArray{sets: sets, lines: lines, nsets: uint32(nsets), block: uint32(blockBytes)}
}

// reset invalidates every line and restarts the LRU clock.
func (c *cacheArray) reset() {
	clear(c.lines)
	c.tick = 0
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

// probe reports the line without touching LRU state.
func (c *cacheArray) probe(blockAddr uint32) *line {
	set := c.sets[c.setIndex(blockAddr)]
	tag := c.tag(blockAddr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
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

// mshrTable tracks outstanding fills by block address. It is a small
// in-place slice rather than a map: the population is bounded by the
// number of simultaneously outstanding fills (tens at most), and prune
// runs on every miss, where iterating a map that once grew large costs
// O(capacity) instead of O(live).
type mshrTable struct {
	fills []mshrFill
}

type mshrFill struct {
	block uint32
	ready int64
}

// outstanding looks up an in-flight fill still pending at cycle now.
func (m *mshrTable) outstanding(blockAddr uint32, now int64) (int64, bool) {
	for i := range m.fills {
		if m.fills[i].block == blockAddr {
			return m.fills[i].ready, m.fills[i].ready > now
		}
	}
	return 0, false
}

// insert records a fill, replacing any stale entry for the same block.
func (m *mshrTable) insert(blockAddr uint32, ready int64) {
	for i := range m.fills {
		if m.fills[i].block == blockAddr {
			m.fills[i].ready = ready
			return
		}
	}
	m.fills = append(m.fills, mshrFill{block: blockAddr, ready: ready})
}

// prune drops completed fills and returns how many remain in flight.
func (m *mshrTable) prune(now int64) int {
	out := m.fills[:0]
	for _, f := range m.fills {
		if f.ready > now {
			out = append(out, f)
		}
	}
	m.fills = out
	return len(out)
}
