package device

import (
	"context"
	"fmt"
	"io"

	"repro/internal/faultinject"
	"repro/internal/kernels"
	"repro/internal/replay"
	"repro/internal/sm"
)

// Table-driven trace replay: record a launch once, re-time it for every
// sweep point.
//
// A parameter sweep re-simulates the same benchmark under
// configurations that change only *when* things happen — latencies,
// unit counts, NoC bandwidth, L2 geometry — never *what* the threads
// compute. The first sweep point therefore runs one full simulation
// that records a compact per-thread trace (package replay: one bit per
// conditional branch, one effective address per global memory
// operation); every later point replays the trace through the complete
// scheduling and timing machinery without decoding operands, executing
// ALU ops, or touching global memory. Replayed statistics are
// bit-identical to a full simulation for every configuration inside the
// trace's validity domain — the replay engine runs the *same* timing
// code over the *same* per-thread functional behavior, it only sources
// branch outcomes and addresses from the table instead of the register
// file.
//
// The validity domain is policed at record time: the recorder sees
// every memory access with its block and barrier epoch, and the race
// analysis of package replay marks the trace non-replayable when any
// unordered pair of accesses conflicts (per-thread functional
// behavior is then timing-dependent, e.g. the racy relaxation updates
// of BFS). Non-replayable benchmarks fall back to full simulation with
// the reason logged once — never a silently wrong number. As a second
// line of defense, a replay whose streams desync at runtime (a
// configuration that changes functional behavior despite an equal
// functional fingerprint would do this) fails loudly and falls back
// too.
//
// Traces are cached by (benchmark, program variant) — see
// sm.Config.FunctionalFingerprint for the functional/timing split: the
// architecture is timing-domain, so one recording of a benchmark's
// thread-frontier program serves SBI, SWI, SBI+SWI and Warp64 at every
// timing configuration, on every device sharing the SimCache.

// WithTraceReplay routes RunSuite entries through the record-once /
// replay-per-point engine: the first configuration to run a benchmark
// records its per-thread execution trace, and every later timing
// configuration replays the trace instead of re-simulating the
// functional layer — bit-identical statistics at a fraction of the
// cost. Benchmarks whose traces fail the record-time race analysis
// fall back to full simulation with the reason logged (WithReplayLog).
// Off by default. Implies a private SimCache when none is shared, so
// traces outlive single entries.
func WithTraceReplay(on bool) Option {
	return func(s *settings) { s.traceReplay = on }
}

// WithReplayLog directs the trace-replay fallback diagnostics (the
// one-line reasons benchmarks are simulated in full instead of
// replayed) to w. Default: os.Stderr. A nil w keeps the default.
func WithReplayLog(w io.Writer) Option {
	return func(s *settings) { s.replayLog = w }
}

// runBenchmarkTraced is the trace-replay fill for one suite entry:
// record on the first configuration to arrive, replay on every later
// one, full simulation when the benchmark is out of the validity
// domain. A trace outside the domain (its reason was logged when it was
// recorded) goes straight to the full simulation. A replay attempt sits
// behind the SiteReplayFallback hook; a context error passes through,
// and any other failure — a desync means this configuration left the
// validity domain at runtime; a panic (safeRun converts it) and an
// injected fault are made to look the same way — falls back loudly
// rather than guess.
func (d *Device) runBenchmarkTraced(ctx context.Context, b *kernels.Benchmark, partition bool) (*sm.Result, error) {
	// Only the call that performs the recording sees recorded set; its
	// full-simulation result doubles as this sweep point's result.
	var recorded *sm.Result
	tr, err := d.cache.traces.do(ctx, traceKey{b.Name, d.funcFP}, func() (*replay.Trace, error) {
		rec := replay.NewRecorder(b.Grid, b.Block)
		res, err := d.runBenchmark(ctx, b, partition, rec, nil)
		if err != nil {
			return nil, err
		}
		tr := rec.Finalize()
		if !tr.Replayable {
			prog := "plain"
			if d.cfg.ThreadFrontier() {
				prog = "thread-frontier"
			}
			d.degradef("device: the %s program of %s is outside the trace-replay validity domain, sweep points run full simulations: %s", prog, b.Name, tr.Reason)
		}
		recorded = res
		return tr, nil
	})
	if err != nil || recorded != nil {
		return recorded, err
	}
	if tr.Replayable {
		res, err := safeRun("trace replay of "+b.Name, func() (*sm.Result, error) {
			if err := d.fire(faultinject.SiteReplayFallback); err != nil {
				return nil, err
			}
			return d.runBenchmark(ctx, b, partition, nil, tr)
		})
		if err == nil || isCtxErr(err) {
			return res, err
		}
		d.degradef("device: trace replay of %s on %s fell back to full simulation: %v", b.Name, d.cfg.Arch, err)
	}
	return d.runBenchmark(ctx, b, partition, nil, nil)
}

// runBenchmark builds the benchmark's launch for the device's
// architecture — its program and parameters, with no image of its own —
// and runs it (partitioned into CTA waves when asked; recording into
// rec or replaying tr as Device.run describes). A full simulation's
// launch image is the benchmark's shared pristine one: the engine fills
// a buffer of its spare from it once it holds a run-queue slot and
// checks the final image against the oracle before the spare goes back
// (memsys.go), so a suite entry allocates no image, and one waiting for
// a slot holds none. A replay reads and writes no global memory — the
// recording run already validated the functional behavior the trace
// encodes — so it runs with no image at all.
func (d *Device) runBenchmark(ctx context.Context, b *kernels.Benchmark, partition bool, rec *replay.Recorder, tr *replay.Trace) (*sm.Result, error) {
	l, err := b.ReplayLaunch(d.cfg.ThreadFrontier())
	if err != nil {
		return nil, err
	}
	var bench *kernels.Benchmark
	if tr == nil {
		l.Global, _ = b.Pristine()
		bench = b
	}
	res, err := d.run(ctx, l, partition, rec, tr, bench)
	if err != nil {
		return nil, fmt.Errorf("device: %s on %s: %w", b.Name, d.cfg.Arch, err)
	}
	return res, nil
}
