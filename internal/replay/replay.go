// Package replay implements the record side of the trace-replay
// engine: during one full simulation the SM model streams, per global
// thread, every conditional-branch outcome and every global-memory
// effective address into a Recorder; the finalized Trace then lets a
// later run of the full scheduling/timing machinery (package sm with
// RunOpts.Replay) re-time the same launch under any timing
// configuration without decoding operands, executing ALU lanes, or
// touching global memory.
//
// # Why per-thread streams make replay exact
//
// The SM model is execute-at-issue with per-thread program order
// preserved structurally, so for a race-free kernel each thread's
// functional behavior — the sequence of conditional-branch outcomes
// and effective addresses it produces — is invariant under every
// timing parameter: latencies, unit widths, NoC/L2 geometry, scheduler
// tie-breaks, warp interleavings and the choice among the
// architectures that run one program reorder *when* threads execute,
// never *what* they compute. Recording those two per-thread streams
// therefore captures everything a re-run needs from the functional
// layer, while the replaying SM still runs its real scheduler,
// scoreboard, reconvergence and memory-timing machinery — which is
// what makes replayed Stats bit-identical to a full simulation for
// any in-domain configuration, not merely approximate.
//
// # Validity domain
//
// The domain boundary is data races: a kernel whose cross-thread
// ordering is not fixed by program order plus block barriers can
// legally compute different values under different timings, so its
// recorded streams describe only the recording run. The recorder
// detects this conservatively, word by word: two accesses to the same
// 32-bit word race when at least one is a store and no barrier orders
// them — cross-block accesses are never ordered, intra-block accesses
// are ordered exactly when they fall in different barrier epochs.
// Nothing is logged for it: each access updates one shadow word of
// state for the word it touches (see wLive), so the analysis costs
// memory in proportion to the words touched, not the accesses made, and
// Finalize only unions the sinks. A racy recording yields Replayable ==
// false with the lowest offending word in Reason; callers fall back to
// full simulation (loudly — see device.WithTraceReplay). Same-value
// write-write races are still flagged: tolerating them would need value
// logging for a benefit no suite kernel currently shows.
package replay

import (
	"fmt"
	"math"
	"unsafe"

	"repro/internal/locked"
)

// Trace is one recorded launch: per-global-thread branch-outcome bits
// and global-memory effective addresses, plus the race verdict. A
// Trace is immutable after Finalize and safe for any number of
// concurrent replay Sessions.
type Trace struct {
	gridDim  int
	blockDim int

	// Each stream is flat, one run per thread in thread order: thread
	// tid's branch outcomes are the bits [branchOff[tid],
	// branchOff[tid+1]) of branchBits, packed little-endian in uint64
	// words, and its global-memory effective addresses, in program
	// order, are addrs[addrOff[tid]:addrOff[tid+1]]. A trace outside the
	// validity domain has no streams.
	branchOff  []uint32
	branchBits []uint64
	addrOff    []uint32
	addrs      []uint32

	// Replayable reports whether the recording is race-free and may be
	// re-timed. Otherwise Reason names the address space, the lowest
	// racy word and whether threads of one block or several blocks
	// conflict on it — a function of the access set alone. Which block
	// and barrier epoch raced is not part of it: the analysis keeps no
	// per-word state that could say.
	Replayable bool
	Reason     string
}

// Matches reports whether the trace was recorded for this launch
// geometry.
func (t *Trace) Matches(gridDim, blockDim int) bool {
	return t.gridDim == gridDim && t.blockDim == blockDim
}

// Threads returns the recorded global thread count.
func (t *Trace) Threads() int { return t.gridDim * t.blockDim }

// sharedKeyBit marks shared-memory word keys; global words use the
// plain word index. Shared keys embed the CTA because shared memory is
// per-block storage: equal offsets in different blocks never alias.
const sharedKeyBit = 1 << 63

// The race analysis keeps one shadow word per 32-bit word touched. A
// word's accesses fall into (cta, barrier epoch) groups, and only the
// group being written to — the open one — needs detail:
//
//	bits 32..63  first thread of the open group
//	bits  6..31  barrier epoch of the open group
//	bits  0..5   the flags below
//
// An access from another epoch or CTA closes the open group into the
// three sticky flags and opens the next. That loses nothing, because a
// CTA's accesses reach one sink in non-decreasing epoch order (see
// Sink): a group is contiguous unless another CTA interleaves, and then
// the word is multi-CTA, where any store at all is a race.
const (
	wLive      = 1 << iota // touched: the open-group fields are valid
	wOpenStore             // the open group has a store
	wOpenMulti             // the open group has a second thread
	wMultiCTA              // sticky: a second CTA touched the word
	wStore                 // sticky: a closed group had a store
	wRacyGroup             // sticky: a closed group had a store and a second thread

	epochShift = 6
	tidShift   = 32
	maxEpoch   = 1 << (tidShift - epochShift)
	maxTid     = 1 << 31 // keeps a shared key's CTA clear of sharedKeyBit

	pageShift = 9 // 512 words, 4 KB of shadow state
)

// page holds the shadow words of 1<<pageShift consecutive keys; pages
// exist only for key ranges a sink touched.
type page [1 << pageShift]uint64

// closeGroup folds a shadow word's open group into its sticky flags.
func closeGroup(s uint64) uint64 {
	if s&wOpenStore != 0 {
		s |= wStore
		if s&wOpenMulti != 0 {
			s |= wRacyGroup
		}
	}
	return s & (wLive | wMultiCTA | wStore | wRacyGroup)
}

// Recorder accumulates one launch's streams. Stream writes go through
// per-SM Sinks: each sink is single-goroutine and logs into storage of
// its own, so recording needs no lock on the hot path. What a recording
// allocates is its Trace: the sinks, their logs and their shadow pages
// come from a bounded process-wide store that Finalize refills.
type Recorder struct {
	gridDim  int
	blockDim int
	threads  int

	state locked.Value[recorderState]
}

// recorderState is what a Recorder's sinks share: the sinks handed
// out and the trace Finalize built.
type recorderState struct {
	sinks []*Sink
	trace *Trace
}

// NewRecorder sizes a recorder for a launch geometry.
func NewRecorder(gridDim, blockDim int) *Recorder {
	return &Recorder{gridDim: gridDim, blockDim: blockDim, threads: gridDim * blockDim}
}

// spareSinks and sparePages hold what a Finalize gives back for later
// recordings to take before they build: sinks, whose logs and
// shadow-page maps keep their storage, and shadow pages, zeroed. The
// store holds at most maxSpareSinkBytes of sinks, each weighed by its
// logs' and page map's storage (sinkBytes), and maxSparePages pages;
// what does not fit goes with the recording. A recording that is never
// finalized (its run failed) keeps its sinks.
var (
	spareSinks locked.Stack[*Sink]
	sparePages locked.Stack[*page]
)

const (
	maxSpareSinkBytes = 16 << 20
	maxSparePages     = 1 << 10 // 4 MiB of shadow state
)

// Sink returns a recording handle for one SM instance, which may serve
// several CTAs in turn, as an SM slot serves its successive waves. Each
// sink must only be used from one goroutine at a time; sinks over
// disjoint CTA ranges may run concurrently. A CTA records through
// exactly one sink: Finalize takes a word two sinks touched as touched
// by two CTAs, just as Mem takes a word two CTAs touched through one
// sink.
func (r *Recorder) Sink() *Sink {
	k, ok := spareSinks.Take()
	if !ok {
		k = new(Sink)
	}
	k.r = r
	r.state.Do(func(st *recorderState) { st.sinks = append(st.sinks, k) })
	return k
}

// Sink is one SM's single-goroutine recording handle: stream entries
// are logged in call order, and the race analysis' shadow words stay
// sink-local until Finalize.
//
// The analysis is exact under one contract, which the SM model meets
// because a CTA lives on one SM and its barrier epoch only increments:
// all of a CTA's accesses go through one sink, in non-decreasing epoch
// order. An access that visibly breaks it, or whose thread id or epoch
// does not fit the shadow word, makes the trace non-replayable with a
// Reason saying so.
type Sink struct {
	r *Recorder
	// branches logs each outcome as tid<<1 | taken, addrs each global
	// address as tid<<32 | addr. A thread's entries all reach one sink
	// (its CTA's), so each log holds them in the thread's program order.
	branches []uint32
	addrs    []uint64
	// pages is confined to the sink's goroutine until Finalize, which
	// runs after every recording goroutine completed.
	pages map[uint64]*page
	// last is the page of the previous access, lastKey its map key: a
	// warp's lanes mostly land in one page.
	last    *page
	lastKey uint64
	// fault is the first contract violation seen, "" for none.
	fault string
}

// Matches reports whether the sink records for this launch geometry.
func (k *Sink) Matches(gridDim, blockDim int) bool {
	return k.r.gridDim == gridDim && k.r.blockDim == blockDim
}

// Branch records one conditional-branch outcome for a thread.
func (k *Sink) Branch(tid int, taken bool) {
	if uint(tid) >= uint(k.r.threads) || uint64(tid) >= maxTid {
		k.fail("branch of thread %d outside the launch", tid)
		return
	}
	e := uint32(tid) << 1
	if taken {
		e |= 1
	}
	k.branches = append(k.branches, e)
}

// Mem records one memory access a thread advanced past: global
// accesses log addr to the thread's address stream; both spaces update
// the word's shadow state. tid is the global thread id, cta its block,
// epoch the block's barrier epoch.
func (k *Sink) Mem(tid, cta, epoch int, addr uint32, global, store bool) {
	r := k.r
	ctaBase := cta * r.blockDim
	if uint64(tid) >= maxTid || uint64(epoch) >= maxEpoch || uint(tid) >= uint(r.threads) || uint(tid-ctaBase) >= uint(r.blockDim) {
		k.fail("thread %d of block %d at barrier epoch %d is outside the launch or the race analysis' packed fields", tid, cta, epoch)
		return
	}
	key := uint64(addr >> 2)
	if global {
		k.addrs = append(k.addrs, uint64(tid)<<32|uint64(addr))
	} else {
		key |= sharedKeyBit | uint64(cta)<<32
	}
	if pk := key >> pageShift; k.last == nil || pk != k.lastKey {
		k.last, k.lastKey = k.page(pk), pk
	}
	w := &k.last[key&(1<<pageShift-1)]

	open := uint64(tid)<<tidShift | uint64(epoch)<<epochShift | wLive
	if store {
		open |= wOpenStore
	}
	s := *w
	if s == 0 {
		*w = open
		return
	}
	if uint(int(s>>tidShift)-ctaBase) >= uint(r.blockDim) {
		s |= wMultiCTA // the open group is another CTA's
	} else if openEpoch := int(s >> epochShift & (maxEpoch - 1)); epoch == openEpoch {
		if s>>tidShift != uint64(tid) {
			s |= wOpenMulti
		}
		*w = s | open&wOpenStore
		return
	} else if epoch < openEpoch {
		k.fail("block %d accessed %s word %#x at barrier epoch %d after epoch %d: a block's epochs must not decrease", cta, spaceOf(key), wordAddr(key), epoch, openEpoch)
		return
	}
	*w = closeGroup(s) | open
}

// page returns the shadow page with map key pk, taking a spare or a
// new one on first touch.
func (k *Sink) page(pk uint64) *page {
	p := k.pages[pk]
	if p == nil {
		if k.pages == nil {
			k.pages = make(map[uint64]*page)
		}
		var ok bool
		if p, ok = sparePages.Take(); !ok {
			p = new(page)
		}
		k.pages[pk] = p
	}
	return p
}

// fail records the sink's first contract violation.
func (k *Sink) fail(format string, args ...any) {
	if k.fault == "" {
		k.fault = "recorder contract violated: " + fmt.Sprintf(format, args...)
	}
}

// recycle empties the sink — logs cut to length 0, pages zeroed — and
// gives it and its pages to the store.
func (k *Sink) recycle() {
	size := k.sinkBytes()
	for _, p := range k.pages {
		*p = page{}
		sparePages.Give(p, 1, maxSparePages)
	}
	clear(k.pages)
	k.r, k.last, k.fault = nil, nil, ""
	k.branches, k.addrs = k.branches[:0], k.addrs[:0]
	spareSinks.Give(k, size, maxSpareSinkBytes)
}

// sinkBytes is roughly the storage an emptied sink keeps: its logs'
// capacity, its page map's entries (clear keeps them) and itself.
func (k *Sink) sinkBytes() int {
	return 4*cap(k.branches) + 8*cap(k.addrs) + 16*len(k.pages) + int(unsafe.Sizeof(*k))
}

// Finalize runs the race analysis over the sinks and returns the
// immutable trace, whose streams it builds from the sinks' logs when
// the recording is replayable; the sinks go back to the store. Call it
// after every recording run completed; a repeated call returns the
// first call's trace.
func (r *Recorder) Finalize() *Trace {
	var t *Trace
	r.state.Do(func(st *recorderState) {
		if st.trace == nil {
			t = &Trace{gridDim: r.gridDim, blockDim: r.blockDim}
			if t.Reason = findRace(st.sinks); t.Reason == "" {
				t.Reason = t.fill(st.sinks)
			}
			t.Replayable = t.Reason == ""
			for _, k := range st.sinks {
				k.recycle()
			}
			st.sinks, st.trace = nil, t
		}
		t = st.trace
	})
	return t
}

// fill builds the trace's streams from the sinks' logs, each exactly
// sized: a counting sort by thread. The counts become each thread's
// end offset, and a backwards walk over each log places every entry
// just below its thread's offset, which leaves the offset at the
// thread's start and the thread's entries in log order, its program
// order. A stream of 2^32 entries or more is out of the domain.
func (t *Trace) fill(sinks []*Sink) string {
	n, nb, na := t.Threads(), 0, 0
	for _, k := range sinks {
		nb, na = nb+len(k.branches), na+len(k.addrs)
	}
	if nb > math.MaxUint32 || na > math.MaxUint32 {
		return "a stream of the recording is too long to re-time"
	}
	off := make([]uint32, 2*(n+1))
	t.branchOff, t.addrOff = off[:n+1:n+1], off[n+1:]
	for _, k := range sinks {
		for _, e := range k.branches {
			t.branchOff[e>>1]++
		}
		for _, e := range k.addrs {
			t.addrOff[e>>32]++
		}
	}
	for i := 1; i < n; i++ {
		t.branchOff[i] += t.branchOff[i-1]
		t.addrOff[i] += t.addrOff[i-1]
	}
	t.branchOff[n], t.addrOff[n] = uint32(nb), uint32(na)
	t.branchBits, t.addrs = make([]uint64, (nb+63)/64), make([]uint32, na)
	for _, k := range sinks {
		for i := len(k.branches) - 1; i >= 0; i-- {
			e := k.branches[i]
			t.branchOff[e>>1]--
			p := t.branchOff[e>>1]
			t.branchBits[p>>6] |= uint64(e&1) << (p & 63)
		}
		for i := len(k.addrs) - 1; i >= 0; i-- {
			e := k.addrs[i]
			t.addrOff[e>>32]--
			t.addrs[t.addrOff[e>>32]] = uint32(e)
		}
	}
	return ""
}

// findRace closes every shadow word, unions the sinks word by word into
// the first sink's pages and returns a description of the lowest word
// (in key order) with a pair of unordered conflicting accesses, or "".
// Cross-block accesses are never ordered, so a store to a word two
// blocks touch races; intra-block accesses are ordered iff their
// barrier epochs differ, so a store plus a second thread within one
// (cta, epoch) group races. The verdict is a property of the access
// set: neither the order concurrent sinks ran in nor the map order
// below reaches it. A page moves to the first sink when no earlier sink
// has its key, so each page stays in exactly one sink's map.
func findRace(sinks []*Sink) string {
	if len(sinks) == 0 {
		return ""
	}
	all := sinks[0]
	for i, k := range sinks {
		if k.fault != "" {
			return k.fault
		}
		for pk, p := range k.pages {
			m := all.pages[pk]
			if i == 0 || m == nil {
				for j, s := range p {
					p[j] = closeGroup(s)
				}
				if i > 0 {
					if all.pages == nil {
						all.pages = make(map[uint64]*page)
					}
					all.pages[pk] = p
					delete(k.pages, pk)
				}
				continue
			}
			for j, s := range p {
				s = closeGroup(s)
				if s&m[j]&wLive != 0 {
					s |= wMultiCTA // touched through two sinks, hence by two CTAs
				}
				m[j] |= s
			}
		}
	}
	lowest, scope := uint64(0), ""
	for pk, p := range all.pages {
		for i, s := range p {
			key := pk<<pageShift | uint64(i)
			racy := s&wRacyGroup != 0 || s&(wStore|wMultiCTA) == wStore|wMultiCTA
			if !racy || scope != "" && key >= lowest {
				continue
			}
			lowest, scope = key, "threads"
			if s&wMultiCTA != 0 {
				scope = "blocks"
			}
		}
	}
	if scope == "" {
		return ""
	}
	return fmt.Sprintf("%s word %#x written and accessed by unordered %s", spaceOf(lowest), wordAddr(lowest), scope)
}

func spaceOf(key uint64) string {
	if key&sharedKeyBit != 0 {
		return "shared"
	}
	return "global"
}

func wordAddr(key uint64) uint32 { return uint32(key&0xffffffff) << 2 }
