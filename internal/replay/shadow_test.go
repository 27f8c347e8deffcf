package replay

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// access is one entry of the reference analysis' log: the sorted-log
// race analysis the recorder ran before it kept shadow words, kept
// here, sort and all, as the specification the online check is held to.
type access struct {
	key   uint64
	tid   int32
	cta   int32
	epoch int32
	store bool
}

// refFindRace scans the access log for a pair of unordered conflicting
// accesses and returns a description of the first one (in word order),
// or "".
func refFindRace(log []access) string {
	sort.Slice(log, func(i, j int) bool {
		a, b := &log[i], &log[j]
		switch {
		case a.key != b.key:
			return a.key < b.key
		case a.cta != b.cta:
			return a.cta < b.cta
		case a.epoch != b.epoch:
			return a.epoch < b.epoch
		default:
			return a.tid < b.tid
		}
	})
	for lo := 0; lo < len(log); {
		hi := lo
		for hi < len(log) && log[hi].key == log[lo].key {
			hi++
		}
		if reason := refRaceInWord(log[lo:hi]); reason != "" {
			return reason
		}
		lo = hi
	}
	return ""
}

// refRaceInWord applies the ordering rule to one word's accesses
// (sorted by cta, epoch, tid): cross-block accesses are never ordered,
// so any store plus a second block races; intra-block accesses are
// ordered iff their barrier epochs differ, so a store plus a different
// thread within one epoch races.
func refRaceInWord(as []access) string {
	multiBlock := as[0].cta != as[len(as)-1].cta
	for lo := 0; lo < len(as); {
		hi := lo
		anyStore := false
		multiThread := false
		for hi < len(as) && as[hi].cta == as[lo].cta && as[hi].epoch == as[lo].epoch {
			anyStore = anyStore || as[hi].store
			multiThread = multiThread || as[hi].tid != as[lo].tid
			hi++
		}
		if anyStore && (multiBlock || multiThread) {
			scope := "blocks"
			if !multiBlock {
				scope = "threads"
			}
			return fmt.Sprintf("%s word %#x written and accessed by unordered %s",
				spaceOf(as[lo].key), wordAddr(as[lo].key), scope)
		}
		lo = hi
	}
	return ""
}

// acc is one Sink.Mem call.
type acc struct {
	tid, cta, epoch int
	addr            uint32
	global, store   bool
}

func (a acc) feed(k *Sink) { k.Mem(a.tid, a.cta, a.epoch, a.addr, a.global, a.store) }

func (a acc) ref() access {
	key := uint64(a.addr >> 2)
	if !a.global {
		key |= sharedKeyBit | uint64(a.cta)<<32
	}
	return access{key: key, tid: int32(a.tid), cta: int32(a.cta), epoch: int32(a.epoch), store: a.store}
}

// TestShadowMatchesSortedLog drives seeded access sets that obey the
// sink contract — every CTA pinned to one of 1–4 sinks, its epochs
// non-decreasing, CTAs of a sink interleaved at random (so a word sees
// A, then B, then A again), few words so that they collide, threads
// re-accessing their own words — through the shadow-word analysis and
// the sorted-log reference, and requires the same verdict, the same
// lowest racy word and the same scope.
func TestShadowMatchesSortedLog(t *testing.T) {
	// Words either side of a shadow-page boundary, and one far away.
	words := []uint32{0x0, 0x4, 0x7fc, 0x800, 0x804, 0x40000}
	racy, interleaved := 0, 0
	const sets = 3000
	for seed := int64(0); seed < sets; seed++ {
		rng := rand.New(rand.NewSource(seed))
		grid, block := 1+rng.Intn(5), 1+rng.Intn(4)
		epochs := 1 + rng.Intn(8)
		storeOneIn := 2 + rng.Intn(12)
		nwords := 1 + rng.Intn(len(words))

		// One queue per CTA, in epoch order.
		queues := make([][]acc, grid)
		for cta := range queues {
			for epoch := 0; epoch < epochs; epoch++ {
				for n := rng.Intn(4); n > 0; n-- {
					queues[cta] = append(queues[cta], acc{
						tid: cta*block + rng.Intn(block), cta: cta, epoch: epoch,
						addr:   words[rng.Intn(nwords)],
						global: rng.Intn(4) != 0, store: rng.Intn(storeOneIn) == 0,
					})
				}
			}
		}

		r := NewRecorder(grid, block)
		sinks := make([]*Sink, 1+rng.Intn(4))
		for i := range sinks {
			sinks[i] = r.Sink()
		}
		var log []access
		arrivals := map[uint64][]int{} // per word, the CTAs in arrival order
		var pending []int              // CTAs with accesses left
		for cta, q := range queues {
			if len(q) > 0 {
				pending = append(pending, cta)
			}
		}
		for len(pending) > 0 {
			i := rng.Intn(len(pending))
			cta := pending[i]
			a := queues[cta][0]
			if queues[cta] = queues[cta][1:]; len(queues[cta]) == 0 {
				pending = append(pending[:i], pending[i+1:]...)
			}
			a.feed(sinks[cta%len(sinks)])
			e := a.ref()
			log = append(log, e)
			if h := arrivals[e.key]; len(h) == 0 || h[len(h)-1] != cta {
				arrivals[e.key] = append(h, cta)
			}
		}
		for _, h := range arrivals {
			if len(h) >= 3 && h[0] == h[2] {
				interleaved++
				break
			}
		}

		tr := r.Finalize()
		want := refFindRace(log)
		if tr.Replayable != (want == "") || tr.Reason != want {
			t.Fatalf("seed %d (%d×%d threads, %d sinks): shadow words say %q, the sorted log says %q",
				seed, grid, block, len(sinks), tr.Reason, want)
		}
		if want != "" {
			racy++
		}
	}
	// The generator has to reach both verdicts and the A-B-A arrival
	// order, or the comparison above proves little.
	t.Logf("%d sets: %d racy, %d with a CTA returning to a word after another", sets, racy, interleaved)
	if racy < sets/10 || sets-racy < sets/10 || interleaved < sets/10 {
		t.Fatalf("of %d sets %d racy, %d with a CTA returning to a word after another: generator is lopsided", sets, racy, interleaved)
	}
}

// TestRecorderStateScalesWithWords pins what the race analysis costs in
// memory: O(words touched), not O(accesses). 1024 threads re-reading
// the same 64 shared words of their block 256 times may hold no more
// shadow pages than reading them once. Shared accesses log nothing, so
// the pages are all the recording holds.
func TestRecorderStateScalesWithWords(t *testing.T) {
	const threads, block, nwords = 1024, 256, 64
	pages := func(rounds int) int {
		r := NewRecorder(threads/block, block)
		k := r.Sink()
		for round := 0; round < rounds; round++ {
			for tid := 0; tid < threads; tid++ {
				for w := uint32(0); w < nwords; w++ {
					k.Mem(tid, tid/block, 0, w*4, false, false)
				}
			}
		}
		n := len(k.pages)
		if tr := r.Finalize(); !tr.Replayable {
			t.Fatalf("read-only recording not replayable: %s", tr.Reason)
		}
		return n
	}
	once, many := pages(1), pages(256)
	if once == 0 || many != once {
		t.Fatalf("256 rounds over the same words held %d shadow pages, one round %d: race-analysis state must not grow with accesses", many, once)
	}
}

// TestSpareStoreIsBounded: Finalize gives back no more sink storage
// than maxSpareSinkBytes. Of a sink whose log alone outgrows it and two
// that fit it only one at a time, the store keeps one.
func TestSpareStoreIsBounded(t *testing.T) {
	for _, ok := spareSinks.Take(); ok; _, ok = spareSinks.Take() {
	}
	r := NewRecorder(1, 1)
	// Branch-log capacities in 4-byte entries: over the whole budget,
	// then three quarters of it twice.
	for _, entries := range []int{maxSpareSinkBytes/4 + 1, maxSpareSinkBytes / 16 * 3, maxSpareSinkBytes / 16 * 3} {
		k := r.Sink()
		k.branches = make([]uint32, 0, entries)
		k.Branch(0, true)
	}
	r.Finalize()
	var kept []int
	for k, ok := spareSinks.Take(); ok; k, ok = spareSinks.Take() {
		kept = append(kept, k.sinkBytes())
	}
	if len(kept) != 1 || kept[0] > maxSpareSinkBytes {
		t.Errorf("the store kept sinks of %v bytes, want one within %d", kept, maxSpareSinkBytes)
	}
}

// TestWarmRecorderAllocatesOnlyItsTrace: once the sink store holds a
// sink, a recording allocates its Trace — the flat streams and their
// offsets — and two small headers, whatever its logs and shadow pages
// hold. The streams are a memory-bound loop's: one branch and one
// global load per thread per iteration, every thread its own words.
func TestWarmRecorderAllocatesOnlyItsTrace(t *testing.T) {
	const grid, block, iters = 4, 256, 16
	record := func() *Trace {
		r := NewRecorder(grid, block)
		k := r.Sink()
		for i := 0; i < iters; i++ {
			for tid := 0; tid < grid*block; tid++ {
				k.Branch(tid, (tid+i)%3 == 0)
				k.Mem(tid, tid/block, 0, uint32(4*(i*grid*block+tid)), true, false)
			}
		}
		return r.Finalize()
	}
	record() // fills the store
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := record()
	runtime.ReadMemStats(&after)
	if !tr.Replayable {
		t.Fatalf("race-free recording not replayable: %s", tr.Reason)
	}
	// Six objects: the Recorder, its sink list, the Trace, the offsets,
	// the branch bits and the addresses; the bytes allow the allocator's
	// size-class rounding (at most 1/8) and the headers.
	trace := 4*(len(tr.branchOff)+len(tr.addrOff)+len(tr.addrs)) + 8*len(tr.branchBits)
	got, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	if objects > 6 || got > uint64(trace+trace/8+512) {
		t.Fatalf("a warm recording allocated %d objects, %d bytes, for a trace of %d bytes", objects, got, trace)
	}
}
