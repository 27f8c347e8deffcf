package noc

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/statcheck"
)

func TestValidate(t *testing.T) {
	for _, good := range []Config{
		Default(),
		{Latency: MaxLatency, BytesPerCycle: 128.0 / MaxOccupancy},
		{Latency: 0, BytesPerCycle: math.Inf(1)}, // an unlimited port
	} {
		if err := good.Validate(128); err != nil {
			t.Errorf("config %+v: %v", good, err)
		}
	}
	for _, c := range []Config{
		{Latency: -1, BytesPerCycle: 1},
		{Latency: 0, BytesPerCycle: 0},
		{Latency: 0, BytesPerCycle: -4},
		// A latency or a per-request occupancy past the bounds would wrap
		// the cycle arithmetic; NaN compares false against every bound.
		{Latency: MaxLatency + 1, BytesPerCycle: 1},
		{Latency: math.MaxInt64, BytesPerCycle: 1},
		{Latency: 0, BytesPerCycle: 1e-300},
		{Latency: 0, BytesPerCycle: math.NaN()},
		{Latency: 0, BytesPerCycle: math.Inf(-1)},
	} {
		if err := c.Validate(128); err == nil {
			t.Errorf("config %+v must be rejected", c)
		}
	}
}

func TestUncontendedSendIsPureLatency(t *testing.T) {
	x := New(Config{Latency: 20, BytesPerCycle: 32}, 2)
	if got := x.Send(0, 100, 128); got != 120 {
		t.Errorf("delivery = %d, want 120", got)
	}
	s := x.PortStats(0)
	if s.Requests != 1 || s.Bytes != 128 || s.QueueCycles != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestPortQueueing(t *testing.T) {
	// 128-byte requests at 16 B/cycle occupy a port for 8 cycles: three
	// back-to-back requests at the same cycle queue 0, 8, 16 cycles.
	x := New(Config{Latency: 5, BytesPerCycle: 16}, 1)
	wantDeliver := []int64{5, 13, 21}
	for i, want := range wantDeliver {
		if got := x.Send(0, 0, 128); got != want {
			t.Errorf("request %d delivered at %d, want %d", i, got, want)
		}
	}
	s := x.Stats()
	if s.QueueCycles != 8+16 {
		t.Errorf("QueueCycles = %d, want 24", s.QueueCycles)
	}
	if s.MaxQueueDelay != 16 {
		t.Errorf("MaxQueueDelay = %d, want 16", s.MaxQueueDelay)
	}
}

func TestFractionalBandwidthRoundsUp(t *testing.T) {
	// 128 bytes at 48 B/cycle occupy the port for 2.67 cycles; the next
	// request must wait a whole 3 cycles, matching the ceil convention
	// of the DRAM-port models.
	x := New(Config{Latency: 0, BytesPerCycle: 48}, 1)
	x.Send(0, 0, 128)
	if got := x.Send(0, 0, 128); got != 3 {
		t.Errorf("second delivery = %d, want 3 (port free at 2.67 rounds up)", got)
	}
	if s := x.Stats(); s.QueueCycles != 3 {
		t.Errorf("QueueCycles = %d, want 3", s.QueueCycles)
	}
}

func TestPortsAreIndependent(t *testing.T) {
	x := New(Config{Latency: 1, BytesPerCycle: 1}, 2)
	x.Send(0, 0, 128) // port 0 busy until cycle 128
	if got := x.Send(1, 0, 128); got != 1 {
		t.Errorf("port 1 delivery = %d, want 1 (no cross-port interference)", got)
	}
	if got := x.Send(0, 0, 128); got != 129 {
		t.Errorf("port 0 second delivery = %d, want 129", got)
	}
}

func TestNarrowerPortIsMonotone(t *testing.T) {
	// The same request stream through a narrower port must never be
	// delivered earlier — the property the device's bandwidth-sweep
	// acceptance test relies on.
	stream := []struct {
		now   int64
		bytes int
	}{{0, 128}, {2, 128}, {4, 128}, {40, 128}, {41, 128}}
	var prev []int64
	for _, bw := range []float64{64, 16, 4, 1} {
		x := New(Config{Latency: 10, BytesPerCycle: bw}, 1)
		var got []int64
		for _, r := range stream {
			got = append(got, x.Send(0, r.now, r.bytes))
		}
		for i := range got {
			if prev != nil && got[i] < prev[i] {
				t.Errorf("bw %g: request %d delivered at %d, earlier than %d at wider port",
					bw, i, got[i], prev[i])
			}
		}
		prev = got
	}
}

func TestStatsMerge(t *testing.T) {
	a := Stats{Requests: 1, Bytes: 128, QueueCycles: 3, MaxQueueDelay: 3}
	b := Stats{Requests: 2, Bytes: 256, QueueCycles: 10, MaxQueueDelay: 7}
	a.Merge(&b)
	want := Stats{Requests: 3, Bytes: 384, QueueCycles: 13, MaxQueueDelay: 7}
	if a != want {
		t.Errorf("merged = %+v, want %+v", a, want)
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with zero ports must panic")
		}
	}()
	New(Default(), 0)
}

// driveCrossbar sends n seeded 128-byte requests at non-decreasing
// cycles over the crossbar's ports — bursts that queue on them — and
// returns every delivery cycle.
func driveCrossbar(x *Crossbar, ports int, seed uint64, n int) []int64 {
	rng := rand.New(rand.NewPCG(seed, 0x34))
	out := make([]int64, n)
	var now int64
	for i := range out {
		now += rng.Int64N(3)
		out[i] = x.Send(rng.IntN(ports), now, 128)
	}
	return out
}

// TestCrossbarResetEqualsNew is the crossbar's row of the Reset ≡ New
// law (statcheck.CheckReset). A use is a seeded stream of requests,
// whose delivery cycles, per-port counters and total it observes; it
// ends, abandoned or not, with the ports booked. Each subtest adds a
// configuration — more ports, fewer, other timing — and walks every
// ordered pair of the configurations so far.
func TestCrossbarResetEqualsNew(t *testing.T) {
	type shape struct {
		cfg   Config
		ports int
	}
	use := func(x *Crossbar, c shape, seed uint64, _ bool) any {
		obs := []any{driveCrossbar(x, c.ports, seed, 1000), x.Stats()}
		for p := range c.ports {
			obs = append(obs, x.PortStats(p))
		}
		return obs
	}
	row := statcheck.ResetRow[Crossbar, shape]{
		Fresh: func(c shape, seed uint64) any { return use(New(c.cfg, c.ports), c, seed, false) },
		Reset: func(x *Crossbar, c shape) error { x.Reset(c.cfg, c.ports); return nil },
		Use:   use,
	}
	narrow := Config{Latency: 5, BytesPerCycle: 8}
	for _, c := range []struct {
		name string
		next shape
	}{
		{"same", shape{narrow, 2}},
		{"more-ports", shape{narrow, 4}},
		{"fewer-ports", shape{narrow, 1}},
		{"timing", shape{Default(), 2}},
	} {
		row.Configs = append(row.Configs, c.next)
		t.Run(c.name, func(t *testing.T) {
			for _, p := range statcheck.CheckReset(row) {
				t.Error(p)
			}
		})
	}
}
