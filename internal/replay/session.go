package replay

import "fmt"

// Session is one replaying SM's cursor state over a Trace: a read
// position per covered thread into the branch and address streams.
// A Session is single-goroutine (like the SM that owns it) and covers
// one CTA sub-range; independent sessions over one Trace may run
// concurrently, matching the device's wave partitioning. All cursor
// methods are allocation-free — the replay walk's steady state
// allocates nothing.
type Session struct {
	t    *Trace
	base int // first covered global thread (ctaStart * blockDim)
	end  int // one past the last covered global thread

	branchPos []int32
	addrPos   []int32
}

// NewSession opens replay cursors over the CTA sub-range
// [ctaStart, ctaEnd) of a replayable trace: it is Reset on a new
// Session.
func NewSession(t *Trace, ctaStart, ctaEnd int) (*Session, error) {
	s := new(Session)
	if err := s.Reset(t, ctaStart, ctaEnd); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset makes s the session NewSession opens, its cursors cut from the
// storage it has grown for any earlier range. On error s is unchanged.
func (s *Session) Reset(t *Trace, ctaStart, ctaEnd int) error {
	if !t.Replayable {
		return fmt.Errorf("replay: trace is not replayable: %s", t.Reason)
	}
	if ctaStart < 0 || ctaEnd > t.gridDim || ctaStart >= ctaEnd {
		return fmt.Errorf("replay: CTA range [%d, %d) outside recorded grid of %d",
			ctaStart, ctaEnd, t.gridDim)
	}
	s.t, s.base, s.end = t, ctaStart*t.blockDim, ctaEnd*t.blockDim
	n := s.end - s.base
	if cap(s.branchPos) < n {
		s.branchPos, s.addrPos = make([]int32, n), make([]int32, n)
	}
	s.branchPos, s.addrPos = s.branchPos[:n], s.addrPos[:n]
	clear(s.branchPos)
	clear(s.addrPos)
	return nil
}

// Detach lets go of the trace, keeping the cursor storage for the next
// Reset.
func (s *Session) Detach() { s.t = nil }

// Matches reports whether the session replays this launch geometry and
// CTA sub-range.
func (s *Session) Matches(gridDim, blockDim, ctaStart, ctaEnd int) bool {
	return s.t.Matches(gridDim, blockDim) &&
		s.base == ctaStart*blockDim && s.end == ctaEnd*blockDim
}

// Branch consumes the thread's next recorded conditional-branch
// outcome. ok is false when the stream is exhausted — the replayed
// execution diverged from the recording, so the caller must abort
// rather than guess.
//
//sbwi:hotpath
func (s *Session) Branch(tid int) (taken, ok bool) {
	i := tid - s.base
	pos := s.branchPos[i]
	if pos >= s.t.branchN[tid] {
		return false, false
	}
	s.branchPos[i] = pos + 1
	return s.t.branchBits[tid][pos>>6]>>(uint(pos)&63)&1 == 1, true
}

// PeekAddr returns the thread's next recorded global-memory address
// without consuming it: a warp's memory instruction may be visited
// several times (memory-divergence splits replay the load for miss
// threads), and only the visit a thread advances past consumes its
// entry. ok is false on exhaustion.
//
//sbwi:hotpath
func (s *Session) PeekAddr(tid int) (addr uint32, ok bool) {
	i := tid - s.base
	pos := s.addrPos[i]
	stream := s.t.addrs[tid]
	if int(pos) >= len(stream) {
		return 0, false
	}
	return stream[pos], true
}

// ConsumeAddr advances the thread's address cursor past the entry a
// preceding PeekAddr returned; callers only consume after a successful
// peek in the same instruction visit.
//
//sbwi:hotpath
func (s *Session) ConsumeAddr(tid int) {
	i := tid - s.base
	if int(s.addrPos[i]) < len(s.t.addrs[tid]) {
		s.addrPos[i]++
	}
}

// Finish verifies exact stream exhaustion for every covered thread: a
// race-free kernel executes the same per-thread instruction sequence
// under any timing, so leftover (or, caught earlier, missing) entries
// mean the configuration left the trace's validity domain and the
// replayed Stats cannot be trusted.
func (s *Session) Finish() error {
	for tid := s.base; tid < s.end; tid++ {
		i := tid - s.base
		if s.branchPos[i] != s.t.branchN[tid] {
			return fmt.Errorf("replay: thread %d consumed %d of %d recorded branch outcomes — execution diverged from the recording",
				tid, s.branchPos[i], s.t.branchN[tid])
		}
		if int(s.addrPos[i]) != len(s.t.addrs[tid]) {
			return fmt.Errorf("replay: thread %d consumed %d of %d recorded memory addresses — execution diverged from the recording",
				tid, s.addrPos[i], len(s.t.addrs[tid]))
		}
	}
	return nil
}
