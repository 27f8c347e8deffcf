package device

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sm"
)

// TestMemSysCountersNonzero asserts the acceptance signal on a
// bandwidth-bound benchmark: partitioned multi-SM runs behind the
// shared L2 produce nonzero L2 hit/miss and NoC queueing counters.
func TestMemSysCountersNonzero(t *testing.T) {
	b, ok := kernels.ByName("Histogram")
	if !ok {
		t.Fatal("Histogram missing")
	}
	dev, err := New(
		WithArch(sm.ArchSBISWI),
		WithSMs(4),
		WithGridPartition(true),
		WithL2(mem.DefaultL2()),
	)
	if err != nil {
		t.Fatal(err)
	}
	l, err := b.NewLaunch(true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dev.Run(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	l2 := &res.Stats.Mem.L2
	if l2.Hits == 0 || l2.Misses == 0 {
		t.Errorf("L2 hits %d misses %d: both must be nonzero", l2.Hits, l2.Misses)
	}
	if res.Stats.Mem.NoC.Requests == 0 || res.Stats.Mem.NoC.QueueCycles == 0 {
		t.Errorf("NoC stats %+v: requests and queueing must be nonzero", res.Stats.Mem.NoC)
	}
	// Every L2 read is an L1 miss fill arriving inline; misses merged
	// into an outstanding fill (no new transaction) may make the L2 see
	// fewer reads than the L1s counted misses, never more.
	if got, flat := res.Stats.Mem.L2.Loads, res.Stats.Mem.Misses; got == 0 || got > flat {
		t.Errorf("L2 read requests %d: want nonzero and at most the %d merged L1 misses", got, flat)
	}
	// The per-SM port breakdown covers every configured SM and accounts
	// for exactly the shared traffic: every transaction entered the
	// crossbar through its SM's port, so requests and bytes must sum to
	// the merged counters.
	if got, want := len(res.NoCPorts), 4; got != want {
		t.Fatalf("NoCPorts length = %d, want %d (one per SM)", got, want)
	}
	var reqs, bytes uint64
	for _, p := range res.NoCPorts {
		reqs += p.Requests
		bytes += p.Bytes
	}
	if reqs != res.Stats.Mem.NoC.Requests || bytes != res.Stats.Mem.NoC.Bytes {
		t.Errorf("per-SM ports carry %d requests / %d bytes, want the merged %d / %d",
			reqs, bytes, res.Stats.Mem.NoC.Requests, res.Stats.Mem.NoC.Bytes)
	}
}

// TestStoreSaturationStretch is the regression test for the replay
// model's store blindness. WriteStorm issues nothing but stores (48 KB
// of write-through traffic per launch, zero loads), so the retired
// two-pass replay — which computed each wave's contention lag from its
// recorded load fills only — would have reported zero stretch for it.
// The inline model must show the saturation: the L1 write buffers fill,
// stores stall for entries, the LSU back-pressure stretches issue, and
// the partitioned modeled wall-clock ends up above the flat-latency
// run's, which never gates stores at all.
func TestStoreSaturationStretch(t *testing.T) {
	b, ok := kernels.ByName("WriteStorm")
	if !ok {
		t.Fatal("WriteStorm missing")
	}
	run := func(opts ...Option) *sm.Result {
		t.Helper()
		dev, err := New(append([]Option{
			WithArch(sm.ArchSBISWI),
			WithSMs(2),
			WithGridPartition(true),
		}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		l, err := b.NewLaunch(true)
		if err != nil {
			t.Fatal(err)
		}
		res, err := dev.Run(context.Background(), l)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(l.Global, b.Expected()) {
			t.Fatal("simulation diverged from the reference oracle")
		}
		return res
	}
	flat := run()
	modeled := run(WithL2(mem.DefaultL2()), WithInterconnect(noc.Default()))
	if flat.Stats.Mem.StoreQueueStalls != 0 {
		t.Errorf("flat model charged %d store-queue stall cycles; the write buffer must stay disabled without a lower level",
			flat.Stats.Mem.StoreQueueStalls)
	}
	if modeled.Stats.Mem.StoreQueueStalls == 0 {
		t.Error("store-saturating kernel never stalled for a write-buffer entry")
	}
	if modeled.Stats.Mem.L2.Stores == 0 || modeled.Stats.Mem.NoC.Requests == 0 {
		t.Errorf("store stream never reached the shared hierarchy: %+v", modeled.Stats.Mem)
	}
	if m, f := modeled.DeviceCycles(), flat.DeviceCycles(); m <= f {
		t.Errorf("modeled wall-clock %d not above the flat run's %d: store saturation exerted no stretch", m, f)
	}
}

// TestDeviceCyclesMonotoneInBandwidth sweeps the interconnect port
// bandwidth downward on a partitioned run and asserts the modeled
// wall-clock never shrinks.
func TestDeviceCyclesMonotoneInBandwidth(t *testing.T) {
	b, ok := kernels.ByName("Transpose")
	if !ok {
		t.Fatal("Transpose missing")
	}
	prev := int64(0)
	for _, bw := range []float64{64, 16, 4, 1} {
		ncfg := noc.Default()
		ncfg.BytesPerCycle = bw
		dev, err := New(
			WithArch(sm.ArchSBISWI),
			WithSMs(4),
			WithGridPartition(true),
			WithInterconnect(ncfg),
		)
		if err != nil {
			t.Fatal(err)
		}
		l, err := b.NewLaunch(true)
		if err != nil {
			t.Fatal(err)
		}
		res, err := dev.Run(context.Background(), l)
		if err != nil {
			t.Fatal(err)
		}
		dc := res.DeviceCycles()
		if dc < prev {
			t.Errorf("device cycles %d at %gB/c below %d at the wider port", dc, bw, prev)
		}
		prev = dc
	}
}

// TestInlineMemSysRun checks the unpartitioned path: a single-SM run
// with the memory system modeled routes misses through the NoC+L2
// inline, surfaces the counters, and runs no faster than the same
// launch under the flat model plus the pure wire latency.
func TestInlineMemSysRun(t *testing.T) {
	b, ok := kernels.ByName("BFS")
	if !ok {
		t.Fatal("BFS missing")
	}
	run := func(opts ...Option) *sm.Result {
		t.Helper()
		dev, err := New(append([]Option{WithArch(sm.ArchSBISWI)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		l, err := b.NewLaunch(true)
		if err != nil {
			t.Fatal(err)
		}
		res, err := dev.Run(context.Background(), l)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(l.Global, b.Expected()) {
			t.Fatal("simulation diverged from the reference oracle")
		}
		return res
	}
	flat := run()
	modeled := run(WithL2(mem.DefaultL2()))
	if modeled.Stats.Mem.L2.Loads == 0 || modeled.Stats.Mem.NoC.Requests == 0 {
		t.Errorf("inline run surfaced no L2/NoC traffic: %+v", modeled.Stats.Mem)
	}
	if flat.Stats.Mem.L2.Loads != 0 || flat.Stats.Mem.NoC.Requests != 0 {
		t.Errorf("flat run must keep L2/NoC counters zero: %+v", flat.Stats.Mem)
	}
	if flat.NoCPorts != nil {
		t.Errorf("flat run must carry no per-SM port breakdown, got %v", flat.NoCPorts)
	}
	if len(modeled.NoCPorts) != 1 || modeled.NoCPorts[0] != modeled.Stats.Mem.NoC {
		t.Errorf("inline single-SM run: NoCPorts = %v, want exactly the merged counters %v",
			modeled.NoCPorts, modeled.Stats.Mem.NoC)
	}
	// No instruction-derived counter is compared across the two models:
	// BFS warps communicate through global memory (frontier reads race
	// benignly with sibling writes), so a timing change can move a
	// relaxation by an iteration and shift instruction and transaction
	// counts by a few. The oracle check in run() pins the functional
	// result for both models instead.
}
