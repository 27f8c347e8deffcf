package mem

import (
	"fmt"

	"repro/internal/noc"
)

// L2Config sets the shared second-level cache parameters.
type L2Config struct {
	Bytes int // total capacity
	Ways  int // associativity
	Banks int // independent banks, interleaved by block address

	// HitLatency is the tag+data access time of one bank in cycles.
	HitLatency int64

	// BytesPerCycle is one bank's service bandwidth: an access occupies
	// its bank for BlockBytes/BytesPerCycle cycles, so same-bank
	// accesses from different SMs serialize (bank conflicts) while
	// different banks proceed in parallel.
	BytesPerCycle float64
}

// DefaultL2 returns a Fermi-class shared L2: 768 KB, 8-way, 8 banks,
// 30-cycle bank access, 32 B/cycle per bank.
func DefaultL2() L2Config {
	return L2Config{
		Bytes:         768 * 1024,
		Ways:          8,
		Banks:         8,
		HitLatency:    30,
		BytesPerCycle: 32,
	}
}

// Validate checks the geometry against the block size it will serve,
// and each bank, with its hit latency, as a noc.CheckLink link.
func (c *L2Config) Validate(blockBytes int) error {
	if c.Bytes <= 0 || c.Ways <= 0 || c.Banks <= 0 {
		return fmt.Errorf("mem: invalid L2 geometry %+v", *c)
	}
	if blockBytes <= 0 || c.Bytes%(blockBytes*c.Ways*c.Banks) != 0 {
		return fmt.Errorf("mem: L2 capacity %d not divisible into %d banks of %d-way sets of %d-byte blocks",
			c.Bytes, c.Banks, c.Ways, blockBytes)
	}
	if err := noc.CheckLink(blockBytes, c.BytesPerCycle, c.HitLatency); err != nil {
		return fmt.Errorf("mem: L2 bank: %w", err)
	}
	return nil
}

// L2Stats counts shared-L2 events. All counters add under Merge.
type L2Stats struct {
	Loads        uint64 // read requests from the L1s
	Stores       uint64 // write-through traffic from the L1s
	Hits         uint64
	Misses       uint64
	MSHRMerges   uint64 // read misses merged into an outstanding fill
	Evictions    uint64
	BankStalls   uint64 // total cycles requests waited for a busy bank
	BytesFromMem uint64 // DRAM read traffic behind the L2
	BytesToMem   uint64 // DRAM write traffic behind the L2
}

// Merge folds another L2's statistics into s.
func (s *L2Stats) Merge(o *L2Stats) {
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.MSHRMerges += o.MSHRMerges
	s.Evictions += o.Evictions
	s.BankStalls += o.BankStalls
	s.BytesFromMem += o.BytesFromMem
	s.BytesToMem += o.BytesToMem
}

// HitRate returns the read hit fraction.
func (s *L2Stats) HitRate() float64 {
	if s.Loads == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Loads)
}

// L2 is the shared second-level cache: banked, set-associative, with
// per-block MSHRs and the device's single DRAM port behind it. Like
// Hierarchy it is purely a timing model — data lives in the launch
// image. An L2 must only be driven from one goroutine; the device
// interleaves all waves' traffic on one shared-clock driving goroutine
// (see package device), which is what keeps multi-SM results
// deterministic under any host scheduling.
type L2 struct {
	cfg L2Config
	mem Config // DRAM port parameters (BytesPerCycle, MemLatency) + block size

	arr   cacheArray
	port  noc.Link // DRAM port behind the L2
	mshr  mshrTable
	banks []noc.Link // per-bank service queues (zero-latency links)

	Stats L2Stats
}

// NewL2 builds a shared L2 in front of the DRAM port described by mem
// (whose BlockBytes is also the L2 line size). It panics on invalid
// geometry; device options validate user input before construction.
func NewL2(cfg L2Config, mem Config) *L2 {
	l := new(L2)
	l.Reset(cfg, mem)
	return l
}

// Reset makes l the cold L2 NewL2 builds for cfg and mem — no line
// valid, nothing in flight, every bank and the DRAM port idle, zero
// Stats — in the tag array and banks it has grown for any earlier
// geometry (a spare's L2 is reset for every launch it serves, and the
// spare may serve devices of different L2 geometry).
func (l *L2) Reset(cfg L2Config, mem Config) {
	if err := cfg.Validate(mem.BlockBytes); err != nil {
		panic(err)
	}
	l.arr.reset(cfg.Bytes, cfg.Ways, mem.BlockBytes)
	if cap(l.banks) < cfg.Banks {
		l.banks = make([]noc.Link, cfg.Banks)
	}
	l.banks = l.banks[:cfg.Banks]
	for i := range l.banks {
		l.banks[i] = noc.NewLink(cfg.BytesPerCycle, 0)
	}
	l.cfg, l.mem = cfg, mem
	l.port = noc.NewLink(mem.BytesPerCycle, mem.MemLatency)
	l.mshr.reset()
	l.Stats = L2Stats{}
}

func (l *L2) bank(blockAddr uint32) int {
	return int(blockAddr/uint32(l.mem.BlockBytes)) % l.cfg.Banks
}

// acquireBank serializes the request on its bank and returns the cycle
// the bank starts serving it (the bank links carry zero latency, so a
// reservation completes the cycle it wins the bank).
func (l *L2) acquireBank(now int64, blockAddr uint32) int64 {
	served := l.banks[l.bank(blockAddr)].Reserve(now, l.mem.BlockBytes)
	if wait := served - now; wait > 0 {
		l.Stats.BankStalls += uint64(wait)
	}
	return served
}

// Access presents one request arriving from the interconnect at cycle
// now and returns, for loads, the cycle its data is available back at
// the L2 side; for stores, the cycle the store has drained — the later
// of the bank access completing and the DRAM port accepting the write —
// which the L1's write buffer holds its entry until. Loads allocate on
// miss; stores are write-through no-allocate (hits refresh the line),
// mirroring the L1's policy so the two levels agree on what memory
// traffic exists.
//
//sbwi:hotpath
func (l *L2) Access(now int64, blockAddr uint32, store bool) int64 {
	if store {
		l.Stats.Stores++
		served := l.acquireBank(now, blockAddr)
		l.arr.lookup(blockAddr) // refresh LRU if present
		accept := l.port.Reserve(served, l.mem.BlockBytes) - l.mem.MemLatency
		l.Stats.BytesToMem += uint64(l.mem.BlockBytes)
		done := served + l.cfg.HitLatency
		if accept > done {
			done = accept
		}
		return done
	}

	l.Stats.Loads++
	served := l.acquireBank(now, blockAddr)
	if ln := l.arr.lookup(blockAddr); ln != nil {
		hit := served + l.cfg.HitLatency
		if ln.ready > hit {
			// Fill still in flight from DRAM: merge into it.
			l.Stats.MSHRMerges++
			return ln.ready
		}
		l.Stats.Hits++
		return hit
	}
	l.Stats.Misses++
	ready, pending, slot := l.mshr.outstanding(blockAddr, now)
	if pending {
		// Evicted while its fill is outstanding: merge, no new traffic.
		l.Stats.MSHRMerges++
		return ready
	}
	ready = l.port.Reserve(served, l.mem.BlockBytes)
	l.Stats.BytesFromMem += uint64(l.mem.BlockBytes)
	l.mshr.insert(slot, blockAddr, ready)
	l.mshr.prune(now)
	if l.arr.fill(blockAddr, ready) {
		l.Stats.Evictions++
	}
	return ready
}
