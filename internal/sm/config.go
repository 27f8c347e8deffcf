// Package sm implements the cycle-level Streaming Multiprocessor model
// of the paper: the Fermi-like baseline (§2, figure 1), Simultaneous
// Branch Interweaving (§3, figure 3), Simultaneous Warp Interweaving
// (§4), their combination, and the 64-wide thread-frontier reference
// configuration used in figure 7.
//
// The model is execute-at-issue: when an instruction issues, its
// architectural effects happen immediately, while the timing machinery
// (scoreboard writeback times, execution-unit occupancy, L1/DRAM
// latencies) decides when dependent instructions may issue. Per-thread
// program order is preserved structurally, so functional results are
// exact regardless of timing-model details; tests assert bit-exact
// equality against the functional reference simulator.
package sm

import (
	"fmt"

	"repro/internal/fingerprint"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sched"
)

// Arch enumerates the modeled micro-architectures.
type Arch uint8

// Architectures of the paper's evaluation (figure 7).
const (
	// ArchBaseline is the Fermi-like SM: two pools of 32-wide warps with
	// even/odd identifiers, one scheduler per pool, and stack-based
	// reconvergence.
	ArchBaseline Arch = iota

	// ArchWarp64 is the thread-frontier reference: a single pool of
	// 64-wide warps, min-PC (thread frontier) reconvergence via the
	// sorted heap, single-issue.
	ArchWarp64

	// ArchSBI adds the second front-end of figure 3: each cycle the
	// selected warp co-issues its primary (CPC1) and secondary (CPC2)
	// warp-splits to disjoint subsets of the 64-lane row; when no
	// secondary split exists the second front-end issues the next
	// sequential instruction of the primary split to a distinct unit
	// group ("scheduling more instructions to distinct SIMD groups",
	// §5.1).
	ArchSBI

	// ArchSWI uses the cascaded secondary scheduler of §4: one pipeline
	// stage after the primary picks I1, the secondary searches other
	// warps for an instruction with a non-overlapping lane mask (or one
	// targeting a free unit group), using a set-associative lookup and
	// lane shuffling.
	ArchSWI

	// ArchSBISWI combines both: the secondary front-end prefers the
	// warp's own secondary split, then other warps (SWI), then the
	// sequential fallback.
	ArchSBISWI
)

func (a Arch) String() string {
	switch a {
	case ArchBaseline:
		return "Baseline"
	case ArchWarp64:
		return "Warp64"
	case ArchSBI:
		return "SBI"
	case ArchSWI:
		return "SWI"
	case ArchSBISWI:
		return "SBI+SWI"
	}
	return fmt.Sprintf("Arch(%d)", uint8(a))
}

// Architectures lists all modeled architectures in figure-7 order.
func Architectures() []Arch {
	return []Arch{ArchBaseline, ArchSBI, ArchSWI, ArchSBISWI, ArchWarp64}
}

// Config collects every micro-architecture parameter (paper table 2).
type Config struct {
	Arch      Arch
	NumWarps  int // resident warps
	WarpWidth int // threads per warp (max 64)

	// IssueDelay is the number of extra front-end cycles between a
	// dependency clearing and the dependent instruction issuing. It
	// aggregates the scheduler stages beyond the first and the
	// instruction-delivery wire stage of table 2: baseline 0, SBI and
	// Warp64 1, SWI and SBI+SWI 2.
	IssueDelay int64

	// ExecLatency is the register-to-register execution latency.
	ExecLatency int64

	// SharedLatency is the shared-memory access latency.
	SharedLatency int64

	// ScoreboardEntries bounds in-flight register writes per warp.
	ScoreboardEntries int
	DepMode           sched.DepMode

	// MADGroups is the number of MAD unit groups; each is MADWidth wide.
	// The baseline has two 32-lane groups, the 64-wide designs one
	// 64-lane row. Once every group is taken in a cycle, an instruction
	// whose lanes are disjoint from those already issued shares the row
	// (the per-lane instruction multiplexer of fig. 3); only a secondary
	// issue slot ever asks.
	MADGroups int
	MADWidth  int
	SFUWidth  int
	LSUWidth  int

	// Constraints enables the selective synchronization barrier of §3.3
	// (SYNC instructions suspend run-ahead splits). Without it SYNCs
	// still occupy issue slots but never block.
	Constraints bool

	// Shuffle is the static lane shuffling policy (table 1).
	Shuffle sched.Shuffle

	// Assoc is the SWI secondary lookup associativity
	// (sched.AssocFull = fully associative).
	Assoc int

	// SplitOnMemDivergence enables the Dynamic-Warp-Subdivision-style
	// extension: a load hitting partially in the L1 splits the warp so
	// hit threads run ahead while miss threads replay the load. Off by
	// default, as in the paper (discussed as related/future work).
	SplitOnMemDivergence bool

	Mem mem.Config

	// Seed drives the secondary scheduler's tie-breaking PRNG.
	Seed uint64

	// MaxCycles aborts runaway simulations, at most noc.MaxCycles; 0
	// means the default bound.
	MaxCycles int64

	// TraceCap, when positive, records up to that many issue events for
	// pipeline visualization (figure 2). A partitioned device launch
	// keeps its first CTA wave's trace.
	TraceCap int
}

// defaultMaxCycles bounds simulations against livelocked kernels.
const defaultMaxCycles = 1 << 30

// Configure returns the paper's table-2 configuration for an
// architecture.
func Configure(a Arch) Config {
	c := Config{
		Arch:              a,
		NumWarps:          16,
		WarpWidth:         64,
		ExecLatency:       8,
		SharedLatency:     3,
		ScoreboardEntries: 6,
		MADGroups:         1,
		MADWidth:          64,
		SFUWidth:          8,
		LSUWidth:          32,
		Shuffle:           sched.ShuffleIdentity,
		Assoc:             sched.AssocFull,
		Mem:               mem.Default(),
	}
	switch a {
	case ArchBaseline:
		c.NumWarps, c.WarpWidth = 32, 32
		c.MADGroups, c.MADWidth = 2, 32
		c.IssueDelay = 0
		c.DepMode = sched.DepWarp
	case ArchWarp64:
		c.IssueDelay = 1
		c.DepMode = sched.DepMatrix
	case ArchSBI:
		c.IssueDelay = 1
		c.DepMode = sched.DepMatrix
		c.Constraints = true
	case ArchSWI:
		c.IssueDelay = 2
		c.DepMode = sched.DepWarp
		c.Shuffle = sched.ShuffleXorRev
	case ArchSBISWI:
		c.IssueDelay = 2
		c.DepMode = sched.DepMatrix
		c.Constraints = true
		c.Shuffle = sched.ShuffleXorRev
	}
	return c
}

// Fingerprint returns a stable digest of every configuration field.
// Equal fingerprints imply identical simulation behavior for identical
// launches — the soundness the device layer's simulation cache keys
// on. The digest is reflection-exhaustive: a field added to Config
// changes fingerprints automatically instead of silently aliasing
// cache entries. It deliberately includes fields that cannot change
// Stats (TraceCap only bounds the recorded trace): including them
// costs at most a cache miss, while excluding a result-bearing field
// would poison the cache.
func (c *Config) Fingerprint() uint64 {
	return fingerprint.Hash(*c)
}

// FunctionalFingerprint digests what selects *what* a launch computes
// rather than *when*: the program variant alone (ThreadFrontier). The
// thread-frontier architectures run one SYNC-instrumented program, and
// every other field — Arch included — is timing-domain: the replay
// engine re-runs the full scheduling/timing machinery, so the
// architecture, latencies, unit geometry, scheduler knobs, seeds and
// the memory hierarchy may all change between record and replay
// (package replay documents why). It is the trace-cache key half: two
// configurations with equal functional fingerprints record identical
// per-thread traces for identical race-free launches. The timing digest
// is Fingerprint itself. A future Config field that changes what a
// thread computes MUST be digested here, or the trace cache would alias
// functionally different runs.
func (c *Config) FunctionalFingerprint() uint64 {
	return fingerprint.Hash(c.ThreadFrontier())
}

// ThreadFrontier reports whether the configuration runs a benchmark's
// SYNC-instrumented thread-frontier program, reconverging on the sorted
// heap, rather than the plain program the baseline's stack runs.
func (c *Config) ThreadFrontier() bool { return c.Arch != ArchBaseline }

// hotSlots is how many warp-splits per warp the front-end may schedule:
// two for SBI-class designs, one otherwise.
func (c *Config) hotSlots() int {
	if c.Arch == ArchSBI || c.Arch == ArchSBISWI {
		return 2
	}
	return 1
}

// pools is the number of independent warp pools/schedulers issuing a
// primary instruction each cycle.
func (c *Config) pools() int {
	if c.Arch == ArchBaseline {
		return 2
	}
	return 1
}

// hasSecondary reports whether a secondary issue slot exists.
func (c *Config) hasSecondary() bool {
	return c.Arch == ArchSBI || c.Arch == ArchSWI || c.Arch == ArchSBISWI
}

// Validate checks configuration sanity.
func (c *Config) Validate() error {
	if c.NumWarps <= 0 || c.WarpWidth <= 0 || c.WarpWidth > 64 {
		return fmt.Errorf("sm: warps %d x width %d out of range", c.NumWarps, c.WarpWidth)
	}
	if c.WarpWidth&(c.WarpWidth-1) != 0 {
		return fmt.Errorf("sm: warp width %d must be a power of two", c.WarpWidth)
	}
	if c.MADGroups <= 0 || c.MADWidth <= 0 || c.SFUWidth <= 0 || c.LSUWidth <= 0 {
		return fmt.Errorf("sm: unit geometry invalid: %d MAD x %d, SFU %d, LSU %d",
			c.MADGroups, c.MADWidth, c.SFUWidth, c.LSUWidth)
	}
	if c.MADWidth < c.WarpWidth && c.Arch != ArchBaseline {
		return fmt.Errorf("sm: MAD row (%d) narrower than warp (%d)", c.MADWidth, c.WarpWidth)
	}
	if c.ScoreboardEntries <= 0 {
		return fmt.Errorf("sm: scoreboard entries must be positive")
	}
	// noc.MaxLatency documents the bounds and why they suffice.
	if c.ExecLatency < 1 || c.ExecLatency > noc.MaxLatency {
		return fmt.Errorf("sm: execution latency %d outside [1, %d]", c.ExecLatency, int64(noc.MaxLatency))
	}
	if c.IssueDelay < 0 || c.SharedLatency < 0 || c.IssueDelay > noc.MaxLatency || c.SharedLatency > noc.MaxLatency {
		return fmt.Errorf("sm: issue delay %d and shared latency %d must lie in [0, %d]",
			c.IssueDelay, c.SharedLatency, int64(noc.MaxLatency))
	}
	if c.MaxCycles > noc.MaxCycles {
		return fmt.Errorf("sm: cycle bound %d above %d", c.MaxCycles, int64(noc.MaxCycles))
	}
	if err := c.Mem.Validate(); err != nil {
		return err
	}
	if c.SplitOnMemDivergence && !c.ThreadFrontier() {
		return fmt.Errorf("sm: memory-divergence splitting requires a thread-frontier architecture")
	}
	return nil
}
