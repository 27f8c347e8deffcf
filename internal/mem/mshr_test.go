package mem

import (
	"math/rand/v2"
	"testing"
)

// refMSHR is the linear-scan table mshrTable replaced, verbatim: the
// specification the indexed table is held to.
type refMSHR struct {
	fills []refFill
}

type refFill struct {
	block uint32
	ready int64
}

// outstanding looks up an in-flight fill still pending at cycle now.
func (m *refMSHR) outstanding(blockAddr uint32, now int64) (int64, bool) {
	for i := range m.fills {
		if m.fills[i].block == blockAddr {
			return m.fills[i].ready, m.fills[i].ready > now
		}
	}
	return 0, false
}

// insert records a fill, replacing any stale entry for the same block.
func (m *refMSHR) insert(blockAddr uint32, ready int64) {
	for i := range m.fills {
		if m.fills[i].block == blockAddr {
			m.fills[i].ready = ready
			return
		}
	}
	m.fills = append(m.fills, refFill{block: blockAddr, ready: ready})
}

// prune drops completed fills and returns how many remain in flight.
func (m *refMSHR) prune(now int64) int {
	out := m.fills[:0]
	for _, f := range m.fills {
		if f.ready > now {
			out = append(out, f)
		}
	}
	m.fills = out
	return len(out)
}

// TestMSHRMatchesLinearScan drives the indexed table and the scan it
// replaced the way Load does — probe; on a non-merge, insert then prune
// at the same cycle — over seeded sequences with non-monotone cycles,
// fills already complete when inserted, re-filled blocks whose old fill
// expired unpruned, resets mid-sequence, 32- and 128-byte blocks, and
// (one sequence in fifty) more than a thousand fills in flight, so the
// index grows several times and its deletions wrap around. Every answer
// and every count must be the scan's.
func TestMSHRMatchesLinearScan(t *testing.T) {
	var seen struct{ backwards, early, refills, resets, peak int }
	for seed := uint64(0); seed < 1000; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x35f2))
		block := uint32(32) << (2 * (seed % 2))
		steps, pool, maxLat, maxStep := 200, 8+rng.IntN(256), 600, 10
		if seed%50 == 0 {
			steps, pool, maxLat, maxStep = 3000, 4096, 3000, 2
		}
		var got mshrTable
		var want refMSHR
		now := int64(1000)
		for step := 0; step < steps; step++ {
			switch r := rng.IntN(1000); {
			case r == 0:
				got.reset()
				want.fills = want.fills[:0]
				seen.resets++
			case r < 10:
				now -= int64(rng.IntN(40 * maxStep))
				seen.backwards++
			default:
				now += int64(rng.IntN(maxStep + 1))
			}
			b := uint32(rng.IntN(pool))*block + uint32(rng.IntN(4))<<24
			wr, wp := want.outstanding(b, now)
			gr, gp, slot := got.outstanding(b, now)
			if gr != wr || gp != wp {
				t.Fatalf("seed %d step %d: outstanding(%#x, %d) = (%d, %v), scan says (%d, %v)", seed, step, b, now, gr, gp, wr, wp)
			}
			if wp {
				continue // a merge: Load touches neither table
			}
			if slot >= 0 && got.index[slot] != 0 {
				seen.refills++
			}
			ready := now + int64(rng.IntN(maxLat+40)) - 40
			if ready <= now {
				seen.early++
			}
			want.insert(b, ready)
			got.insert(slot, b, ready)
			wn, gn := want.prune(now), got.prune(now)
			if gn != wn {
				t.Fatalf("seed %d step %d: prune(%d) = %d, scan says %d", seed, step, now, gn, wn)
			}
			seen.peak = max(seen.peak, wn)
		}
	}
	// The sequences must have reached every case the test claims to cover.
	if seen.backwards == 0 || seen.early == 0 || seen.refills == 0 || seen.resets == 0 || seen.peak <= 1000 {
		t.Fatalf("coverage: %+v", seen)
	}
	t.Logf("coverage: %+v", seen)
}

// TestMSHRSteadyStateZeroAllocs: once the table has held a population,
// it holds it again without allocating — directly, and under Load after
// a Reset of a hierarchy that has run.
func TestMSHRSteadyStateZeroAllocs(t *testing.T) {
	var m mshrTable
	now := int64(0)
	churn := func() {
		b := uint32(now%4096) * 128
		_, _, slot := m.outstanding(b, now)
		m.insert(slot, b, now+64)
		now++
		m.prune(now)
	}
	for range 1000 {
		churn()
	}
	if a := testing.AllocsPerRun(1000, churn); a != 0 {
		t.Errorf("warm table at constant population: %v allocs per miss, want 0", a)
	}

	h := NewHierarchy(Default())
	i := uint32(0)
	load := func() {
		h.Load(int64(i)*4, i*128) // a backlogged stream: every load misses
		i++
	}
	for range 2000 {
		load()
	}
	if h.Stats.PeakOutstanding < 1000 {
		t.Fatalf("warm-up reached %d fills in flight, want a backlog", h.Stats.PeakOutstanding)
	}
	h.Reset(Default())
	i = 0
	if a := testing.AllocsPerRun(1000, load); a != 0 {
		t.Errorf("Load after Reset: %v allocs per load, want 0", a)
	}
}
