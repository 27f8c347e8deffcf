// Package noc models the on-chip interconnect between the per-SM L1
// caches and the shared L2: a crossbar with one request port per SM.
// Each port is a bandwidth-limited queue — a request occupies its port
// for BlockBytes/BytesPerCycle cycles and is delivered to the L2 side
// a fixed wire latency after it wins the port — so a burst of misses
// from one SM queues behind itself while different SMs' ports operate
// independently, which is exactly the first-order behavior of a
// crossbar with per-port injection buffers. The reply network is not
// modeled separately: replies are assumed to mirror the request path,
// and their latency is folded into the single Latency parameter.
//
// The model is deterministic and single-threaded by design: a Crossbar
// must only be driven from one goroutine (the device interleaves all
// waves' traffic on one shared-clock driver), so there are no locks
// to make timing depend on the host scheduler.
package noc

import (
	"fmt"
	"math"
)

// Config sets the interconnect timing parameters.
type Config struct {
	// Latency is the one-way request latency in cycles from an SM port
	// to the L2 side once the request has won its port (wire + router
	// pipeline; the reply path is folded in).
	Latency int64

	// BytesPerCycle is the injection bandwidth of one SM port. A
	// 128-byte request occupies the port for 128/BytesPerCycle cycles;
	// later requests from the same port queue behind it.
	BytesPerCycle float64
}

// Default returns an interconnect sized so that a single SM's miss
// stream is rarely port-limited (32 B/cycle ≈ the L1's fill bandwidth),
// with a 20-cycle traversal — NoC effects then appear under real
// multi-SM pressure or when an experiment narrows the port.
func Default() Config {
	return Config{Latency: 20, BytesPerCycle: 32}
}

// Validate checks the configuration for requests of blockBytes bytes.
func (c *Config) Validate(blockBytes int) error {
	if err := CheckLink(blockBytes, c.BytesPerCycle, c.Latency); err != nil {
		return fmt.Errorf("noc: port: %w", err)
	}
	return nil
}

// The bounds on every cycle-valued timing parameter of the simulator:
// each latency (L1 hit, DRAM, L2 bank, NoC traversal, execution, shared
// memory, issue delay) is at most MaxLatency, a link (DRAM port, L2
// bank, NoC port) holds one transfer for at most MaxOccupancy cycles,
// and sm.Config.MaxCycles, the per-wave watchdog, is at most MaxCycles.
// They are why no `now + latency` sum and no float-to-int64 conversion
// in Link.Reserve wraps int64 and makes a run silently faster. Every
// simulated cycle is a clock value plus a few latencies (at most 2^34
// together) plus a link's backlog. A wave's clock stays within
// MaxCycles of where the wave started, since the watchdog aborts the
// wave past its bound. A backlog runs ahead of the clock by at most
// MaxOccupancy per transfer queued on the link, so it nears 2^62 only
// after more than 2^42 transfers have queued on one link without
// anything waiting for them.
const (
	MaxLatency   = 1 << 32
	MaxOccupancy = 1 << 20
	MaxCycles    = 1 << 40
)

// CheckLink checks the parameters of a link that moves bytes per
// transfer against the bounds above: a latency in [0, MaxLatency], and
// a bandwidth at which one transfer holds the link for at most
// MaxOccupancy cycles. +Inf is an unlimited link; NaN is rejected.
func CheckLink(bytes int, bytesPerCycle float64, latency int64) error {
	if latency < 0 || latency > MaxLatency {
		return fmt.Errorf("latency %d outside [0, %d]", latency, int64(MaxLatency))
	}
	if !(bytesPerCycle > 0) || !(float64(bytes)/bytesPerCycle <= MaxOccupancy) {
		return fmt.Errorf("bandwidth %g bytes/cycle must be positive and move a %d-byte transfer in at most %d cycles",
			bytesPerCycle, bytes, MaxOccupancy)
	}
	return nil
}

// Stats counts interconnect events. Counters add under Merge;
// MaxQueueDelay takes the maximum.
type Stats struct {
	Requests    uint64 // requests injected across all ports
	Bytes       uint64 // payload bytes injected
	QueueCycles uint64 // total cycles requests waited for their port

	// MaxQueueDelay is the worst single-request port wait observed.
	MaxQueueDelay int64
}

// Merge folds another interconnect's statistics into s.
func (s *Stats) Merge(o *Stats) {
	s.Requests += o.Requests
	s.Bytes += o.Bytes
	s.QueueCycles += o.QueueCycles
	if o.MaxQueueDelay > s.MaxQueueDelay {
		s.MaxQueueDelay = o.MaxQueueDelay
	}
}

// Link is one bandwidth-limited channel with a fixed post-queue
// latency: a reservation occupies the link for bytes/bytesPerCycle
// cycles and completes latency cycles after it wins the link, rounded
// up to a whole cycle. It is the single service-queue primitive behind
// crossbar ports, L2 banks and DRAM ports, so all three levels share
// one reservation and rounding rule.
type Link struct {
	bytesPerCycle float64
	latency       int64
	free          float64 // time the link next accepts a reservation
}

// NewLink builds a link; its parameters are checked by CheckLink.
func NewLink(bytesPerCycle float64, latency int64) Link {
	return Link{bytesPerCycle: bytesPerCycle, latency: latency}
}

// Reserve books one transfer starting no earlier than now and returns
// the cycle it completes: the service start (queued behind earlier
// reservations, rounded up to a whole cycle) plus the link latency.
func (l *Link) Reserve(now int64, bytes int) int64 {
	start := float64(now)
	if l.free > start {
		start = l.free
	}
	l.free = start + float64(bytes)/l.bytesPerCycle
	return int64(math.Ceil(start)) + l.latency
}

// Crossbar is the interconnect instance: per-port links plus per-port
// statistics. Not safe for concurrent use; see the package comment.
type Crossbar struct {
	cfg   Config
	ports []Link
	stats []Stats // per-port counters
}

// New builds a crossbar with ports request ports. It panics on a
// non-positive port count (an internal wiring error, not user input —
// the device validates options, cfg included, at New).
func New(cfg Config, ports int) *Crossbar {
	x := new(Crossbar)
	x.Reset(cfg, ports)
	return x
}

// Reset makes x the idle crossbar New builds for cfg and ports — every
// port free, zero counters — in the per-port arrays it has grown for
// any earlier port count.
func (x *Crossbar) Reset(cfg Config, ports int) {
	if ports <= 0 {
		panic(fmt.Sprintf("noc: port count %d must be positive", ports))
	}
	if cap(x.ports) < ports {
		x.ports, x.stats = make([]Link, ports), make([]Stats, ports)
	}
	x.ports, x.stats = x.ports[:ports], x.stats[:ports]
	for i := range x.ports {
		x.ports[i] = NewLink(cfg.BytesPerCycle, cfg.Latency)
	}
	clear(x.stats)
	x.cfg = cfg
}

// Send injects a request of the given payload size on a port at cycle
// now and returns the cycle it is delivered at the L2 side: the port
// queue wait, plus the traversal latency. The port stays busy for
// bytes/BytesPerCycle cycles.
func (x *Crossbar) Send(port int, now int64, bytes int) int64 {
	st := &x.stats[port]
	st.Requests++
	st.Bytes += uint64(bytes)

	deliver := x.ports[port].Reserve(now, bytes)
	if wait := deliver - x.cfg.Latency - now; wait > 0 {
		st.QueueCycles += uint64(wait)
		if wait > st.MaxQueueDelay {
			st.MaxQueueDelay = wait
		}
	}
	return deliver
}

// PortStats returns a copy of one port's counters.
func (x *Crossbar) PortStats(port int) Stats { return x.stats[port] }

// Stats returns the counters aggregated across all ports.
func (x *Crossbar) Stats() Stats {
	var out Stats
	for i := range x.stats {
		out.Merge(&x.stats[i])
	}
	return out
}
