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
// the same 64 global words 256 times may allocate no more, outside the
// per-thread address streams (pre-sized here), than reading them once.
func TestRecorderStateScalesWithWords(t *testing.T) {
	const threads, block, nwords = 1024, 256, 64
	allocated := func(rounds int) uint64 {
		r := NewRecorder(threads/block, block)
		for tid := range r.addrs {
			r.addrs[tid] = make([]uint32, 0, nwords)
		}
		k := r.Sink()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for round := 0; round < rounds; round++ {
			for tid := 0; tid < threads; tid++ {
				r.addrs[tid] = r.addrs[tid][:0] // the streams are not what is measured
				for w := uint32(0); w < nwords; w++ {
					k.Mem(tid, tid/block, 0, w*4, true, false)
				}
			}
		}
		tr := r.Finalize()
		runtime.ReadMemStats(&after)
		if !tr.Replayable {
			t.Fatalf("read-only recording not replayable: %s", tr.Reason)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	once, many := allocated(1), allocated(256)
	if once == 0 || many > once {
		t.Fatalf("256 rounds over the same words allocated %d bytes, one round %d: race-analysis state must not grow with accesses", many, once)
	}
}
