package device

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sm"
)

// memsysSuite returns multi-wave benchmarks with enough global-memory
// traffic to exercise the shared L2 and interconnect.
func memsysSuite(t *testing.T) []*kernels.Benchmark {
	t.Helper()
	var out []*kernels.Benchmark
	for _, name := range []string{"Histogram", "BFS", "DWTHaar1D"} {
		b, ok := kernels.ByName(name)
		if !ok {
			t.Fatalf("benchmark %s missing", name)
		}
		out = append(out, b)
	}
	return out
}

// TestSharedMemSysDeterminism pins the determinism contract of the
// shared-clock path: with the L2 and interconnect modeled, partitioned
// results — merged Stats with all L2/NoC counters, per-wave Stats,
// SMCycles, NoCPorts and DeviceCycles — must be bit-identical across
// host worker counts and repeat runs for each SM count. The SM count
// itself is an architectural parameter (it decides how many waves
// contend for the hierarchy at once), so baselines are per SM count,
// never compared across them. Run under -race in CI, this also proves
// the interleaved wave simulations share no unsynchronized state.
func TestSharedMemSysDeterminism(t *testing.T) {
	suite := memsysSuite(t)
	type snapshot struct {
		stats    sm.Stats
		waves    []sm.Stats
		smCycles []int64
		ports    []noc.Stats
		device   int64
	}
	for _, sms := range []int{1, 2, 8} {
		var baseline []snapshot
		// Two passes per worker count: the second pass of each device
		// repeats the runs, so the loop also pins repeat-run stability.
		for _, workers := range []int{1, 4, 1, 4} {
			dev, err := New(
				WithArch(sm.ArchSBISWI),
				WithSMs(sms),
				WithWorkers(workers),
				WithGridPartition(true),
				WithL2(mem.DefaultL2()),
				WithInterconnect(noc.Default()),
			)
			if err != nil {
				t.Fatal(err)
			}
			results, err := dev.RunSuite(context.Background(), suite)
			if err != nil {
				t.Fatal(err)
			}
			snaps := make([]snapshot, len(results))
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("SMs %d workers %d: %s: %v", sms, workers, r.Name(), r.Err)
				}
				snaps[i] = snapshot{
					stats:    r.Result.Stats,
					waves:    r.Result.Waves,
					smCycles: r.Result.SMCycles,
					ports:    r.Result.NoCPorts,
					device:   r.Result.DeviceCycles(),
				}
			}
			if baseline == nil {
				baseline = snaps
				continue
			}
			for i := range snaps {
				if !reflect.DeepEqual(snaps[i], baseline[i]) {
					t.Errorf("SMs %d workers %d: %s: results differ from this SM count's baseline\n got: %+v\nwant: %+v",
						sms, workers, suite[i].Name, snaps[i], baseline[i])
				}
			}
		}
	}
}

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

// TestMemsysConservation pins the conservation laws of the inline
// memory system over the whole benchmark suite, for the whole-grid shape
// (one SM slot, one-port crossbar) and a 4-SM partitioned shape (one
// multi-slot domain, the L1 side summed over its waves): every L2 access
// entered through a crossbar port (NoC.Requests == L2 loads + stores,
// bytes == requests × block size), every L1 store transaction reaches
// the L2 — the store blindness the retired two-pass contention replay
// had — and the L2 sees at most the L1s' misses as loads, short at most
// their MSHR merges.
func TestMemsysConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite conservation sweep")
	}
	for _, shape := range []string{"whole-grid", "partitioned"} {
		dev, err := New(WithArch(sm.ArchSBISWI), WithL2(mem.DefaultL2()), WithInterconnect(noc.Default()),
			WithSMs(4), WithGridPartition(shape == "partitioned"))
		if err != nil {
			t.Fatal(err)
		}
		bb := uint64(dev.Config().Mem.BlockBytes)
		for _, b := range kernels.All() {
			t.Run(shape+"/"+b.Name, func(t *testing.T) {
				res, err := dev.Run(context.Background(), mustLaunch(t, b.Name))
				if err != nil {
					t.Fatal(err)
				}
				l1, l2, nc := &res.Stats.Mem, &res.Stats.Mem.L2, &res.Stats.Mem.NoC
				if nc.Requests != l2.Loads+l2.Stores {
					t.Errorf("%d NoC requests, want the %d+%d L2 loads+stores", nc.Requests, l2.Loads, l2.Stores)
				}
				if nc.Bytes != nc.Requests*bb {
					t.Errorf("%d NoC bytes, want requests×blockBytes = %d", nc.Bytes, nc.Requests*bb)
				}
				if l2.Stores != l1.Stores {
					t.Errorf("L2 saw %d stores, L1 sent %d: store traffic lost below the L1", l2.Stores, l1.Stores)
				}
				if l2.Loads > l1.Misses || l2.Loads+l1.MSHRMerges < l1.Misses {
					t.Errorf("L2 saw %d loads for %d L1 misses (%d merges)", l2.Loads, l1.Misses, l1.MSHRMerges)
				}
			})
		}
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
