// Package faultinject is the simulator's deterministic fault-injection
// plane: a seeded, reproducible schedule of induced failures at named
// sites of the device stack, for chaos-testing the hardened layers
// (panic isolation, watchdog aborts, cache poisoning rules).
//
// A Plan is compiled once from a Spec — a list of Rules, each binding a
// fault Kind (panic, error, delay, cancellation) to a Site
// with a trigger (exact hit indices, a period, or a probability) — and
// then armed on a device with WithFaultPlan. Every instrumented site
// calls Plan.Fire on each pass; the plan decides, from nothing but the
// seed and its per-rule hit counters, whether this pass fails. Two runs
// with the same seed, spec and site visit order therefore inject the
// same faults at the same hits: a failing chaos schedule is replayable
// from its seed alone.
//
// The package is test infrastructure by design: a nil *Plan (the
// production state) never fires, and the only cost a disarmed site pays
// is one nil check. It deliberately lives outside the
// determinism-critical package set — delays sleep on the host wall
// clock and probabilities draw from per-rule seeded PRNGs, neither of
// which may ever reach modeled cycles.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/locked"
)

// Site names one instrumented point of the device stack.
type Site string

// The instrumented sites, in the order a launch meets them.
const (
	// SiteStreamDispatch fires when a stream operation leaves the FIFO
	// chain and starts executing.
	SiteStreamDispatch Site = "stream-dispatch"

	// SiteSuiteWorker fires when a suite worker picks up a batch entry.
	SiteSuiteWorker Site = "suite-worker"

	// SiteCacheFill fires inside a SimCache fill, after in-flight
	// deduplication decided this caller computes the entry.
	SiteCacheFill Site = "cache-fill"

	// SiteQueueAcquire fires before a simulation asks the run queue for
	// an admission slot.
	SiteQueueAcquire Site = "queue-acquire"

	// SiteMemAccess fires on every L1-miss/store access entering the
	// modeled NoC/L2 hierarchy. The call site cannot return an error, so
	// error-class faults at this site are raised as panics (MustFire).
	SiteMemAccess Site = "mem-access"

	// SiteWaveMerge fires before a partitioned launch's merged memory
	// image is committed to the live image: after every wave has
	// succeeded, before flat partitioning's per-wave images are folded.
	SiteWaveMerge Site = "wave-merge"

	// SiteReplayFallback fires at the start of a trace-replay attempt,
	// exercising the loud fall-back-to-full-simulation path.
	SiteReplayFallback Site = "replay-fallback"
)

// Kind is the failure mode a rule injects.
type Kind uint8

const (
	// KindPanic raises a panic with an *Error value, exercising the
	// recover boundaries of the device layer.
	KindPanic Kind = iota + 1

	// KindError returns an *Error.
	KindError

	// KindDelay stalls the site on the host wall clock (Rule.Delay,
	// default 1ms) and then proceeds normally. Delays must never change
	// what a simulation computes — only when — which the chaos suite
	// asserts.
	KindDelay

	// KindCancel returns an error wrapping context.Canceled, so the
	// site's failure is classified exactly like a caller cancellation.
	KindCancel
)

func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindError:
		return "error"
	case KindDelay:
		return "delay"
	case KindCancel:
		return "cancel"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Rule binds one failure mode to one site. Exactly one trigger applies,
// checked in this order: a non-empty Hits list is exhaustive (inject on
// exactly those 1-based hit indices), else a positive Every injects on
// every Every-th hit, else a positive Prob injects each hit with that
// probability from the rule's seeded PRNG. A rule with no trigger
// injects on every hit.
type Rule struct {
	Site  Site
	Kind  Kind
	Hits  []uint64
	Every uint64
	Prob  float64
	Delay time.Duration // KindDelay stall; default 1ms
}

// Spec is a fault schedule: the rule list a Plan is compiled from.
type Spec []Rule

// Error is an injected fault surfaced as (or inside) an error value.
// KindPanic faults panic with an *Error, so a recover boundary that
// converts panics to errors keeps the classification visible to
// errors.As.
type Error struct {
	Site Site
	Kind Kind
	Hit  uint64 // 1-based index of the site hit that injected
}

func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: injected %s at %s (hit %d)", e.Kind, e.Site, e.Hit)
}

// Unwrap makes a KindCancel fault satisfy errors.Is(err,
// context.Canceled), so injected cancellations flow through the exact
// error-classification paths a real caller cancellation would.
func (e *Error) Unwrap() error {
	if e.Kind == KindCancel {
		return context.Canceled
	}
	return nil
}

// IsInjected reports whether err originated from a fault plan, looking
// through wrapping — including a panic-to-error conversion whose Unwrap
// exposes the panic value.
func IsInjected(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// Plan is a compiled, armed fault schedule. All methods are safe for
// concurrent use; a nil *Plan never fires.
type Plan struct {
	seed  uint64
	state locked.Value[planState]
}

// planState is a Plan's mutable state. The rules are reachable only
// through it, so their counters are guarded by the same lock.
type planState struct {
	disarmed bool
	rules    map[Site][]*armedRule
}

// armedRule is one rule plus its firing state. The counters are
// guarded by the owning Plan's lock: advanced only inside Fire's locked
// region (matches and next run under that lock).
type armedRule struct {
	Rule
	hits     uint64 // times the site was visited (1-based at match time)
	injected uint64 // times this rule injected
	rng      uint64 // xorshift64 state for Prob triggers
}

// NewPlan compiles spec into an armed plan. The seed fixes every
// probabilistic trigger: per rule, the PRNG is seeded from (seed, site,
// rule index), so adding a rule never perturbs another rule's draws.
// NewPlan panics on a malformed rule (unknown kind, empty site) — a
// fault schedule is test code, and a silently dropped rule would make a
// chaos run vacuously green.
func NewPlan(seed uint64, spec Spec) *Plan {
	rules := make(map[Site][]*armedRule)
	for i, r := range spec {
		if r.Site == "" {
			panic(fmt.Sprintf("faultinject: rule %d has no site", i))
		}
		if r.Kind < KindPanic || r.Kind > KindCancel {
			panic(fmt.Sprintf("faultinject: rule %d for %s has invalid kind %d", i, r.Site, r.Kind))
		}
		for _, h := range r.Hits {
			if h == 0 {
				panic(fmt.Sprintf("faultinject: rule %d for %s schedules hit 0; hit indices are 1-based", i, r.Site))
			}
		}
		a := &armedRule{Rule: r, rng: ruleSeed(seed, r.Site, i)}
		rules[r.Site] = append(rules[r.Site], a)
	}
	p := &Plan{seed: seed}
	p.state.Do(func(st *planState) { st.rules = rules })
	return p
}

// ruleSeed derives a non-zero xorshift state from the plan seed, the
// site name and the rule's position in the spec.
func ruleSeed(seed uint64, site Site, index int) uint64 {
	// FNV-1a over the site name, folded with the seed and index.
	h := uint64(14695981039346656037)
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	h ^= seed + uint64(index)*0x9E3779B97F4A7C15
	if h == 0 {
		h = 0x9E3779B97F4A7C15
	}
	return h
}

// Fire visits the site: every armed rule for it advances its hit
// counter, and the first rule whose trigger matches injects its fault —
// KindPanic panics with an *Error, KindDelay sleeps and returns nil,
// KindError/KindCancel return the *Error. A nil or disarmed plan (and
// any site without matching rules) returns nil.
func (p *Plan) Fire(site Site) error {
	if p == nil {
		return nil
	}
	var fault *Error
	var delay time.Duration
	p.state.Do(func(st *planState) {
		if st.disarmed {
			return
		}
		for _, r := range st.rules[site] {
			r.hits++
			if fault == nil && r.matches() {
				r.injected++
				fault = &Error{Site: site, Kind: r.Kind, Hit: r.hits}
				delay = r.Delay
			}
		}
	})
	if fault == nil {
		return nil
	}
	switch fault.Kind {
	case KindDelay:
		if delay <= 0 {
			delay = time.Millisecond
		}
		time.Sleep(delay)
		return nil
	case KindPanic:
		panic(fault)
	default:
		return fault
	}
}

// MustFire is Fire for sites that cannot return an error (the hot
// memory-access path): an injected error-class fault is raised as a
// panic instead, its *Error still visible through the panic-to-error
// conversion at the recover boundary.
func (p *Plan) MustFire(site Site) {
	if err := p.Fire(site); err != nil {
		panic(err)
	}
}

// matches decides, under the plan lock, whether the rule injects on its
// current (already advanced) hit counter.
func (r *armedRule) matches() bool {
	switch {
	case len(r.Hits) > 0:
		for _, h := range r.Hits {
			if h == r.hits {
				return true
			}
		}
		return false
	case r.Every > 0:
		return r.hits%r.Every == 0
	case r.Prob > 0:
		return r.next() < r.Prob
	default:
		return true
	}
}

// next draws a uniform float64 in [0,1) from the rule's xorshift64
// state.
func (r *armedRule) next() float64 {
	x := r.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.rng = x
	return float64(x>>11) / (1 << 53)
}

// Disarm stops all injection permanently: later Fire calls return nil
// without advancing counters. Chaos tests disarm the plan after the
// fault storm to prove the device is still fully usable.
func (p *Plan) Disarm() {
	if p == nil {
		return
	}
	p.state.Do(func(st *planState) { st.disarmed = true })
}

// Hits returns how many times the site has been visited (the maximum
// over its rules' counters, since every rule counts every visit).
func (p *Plan) Hits(site Site) uint64 {
	if p == nil {
		return 0
	}
	var n uint64
	p.state.Do(func(st *planState) {
		for _, r := range st.rules[site] {
			if r.hits > n {
				n = r.hits
			}
		}
	})
	return n
}

// Injected returns how many faults the plan injected at the site.
func (p *Plan) Injected(site Site) uint64 {
	if p == nil {
		return 0
	}
	var n uint64
	p.state.Do(func(st *planState) {
		for _, r := range st.rules[site] {
			n += r.injected
		}
	})
	return n
}

// TotalInjected returns how many faults the plan injected across all
// sites.
func (p *Plan) TotalInjected() uint64 {
	if p == nil {
		return 0
	}
	var n uint64
	p.state.Do(func(st *planState) {
		for _, rs := range st.rules {
			for _, r := range rs {
				n += r.injected
			}
		}
	})
	return n
}

// String summarizes the plan's state per site, sorted by site name.
func (p *Plan) String() string {
	if p == nil {
		return "faultinject: no plan"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "faultinject: plan seed=%d", p.seed)
	p.state.Do(func(st *planState) {
		sites := make([]string, 0, len(st.rules))
		for s := range st.rules {
			sites = append(sites, string(s))
		}
		sort.Strings(sites)
		if st.disarmed {
			b.WriteString(" (disarmed)")
		}
		for _, s := range sites {
			var hits, injected uint64
			for _, r := range st.rules[Site(s)] {
				if r.hits > hits {
					hits = r.hits
				}
				injected += r.injected
			}
			fmt.Fprintf(&b, "\n  %s: %d hits, %d injected", s, hits, injected)
		}
	})
	return b.String()
}
