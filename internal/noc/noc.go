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

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Latency < 0 {
		return fmt.Errorf("noc: negative latency %d", c.Latency)
	}
	if c.BytesPerCycle <= 0 {
		return fmt.Errorf("noc: port bandwidth %g must be positive", c.BytesPerCycle)
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

// NewLink builds a link; bytesPerCycle must be positive.
func NewLink(bytesPerCycle float64, latency int64) Link {
	if bytesPerCycle <= 0 {
		panic(fmt.Sprintf("noc: link bandwidth %g must be positive", bytesPerCycle))
	}
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
// non-positive port count or an invalid configuration (internal wiring
// errors, not user input — the device validates options at New).
func New(cfg Config, ports int) *Crossbar {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if ports <= 0 {
		panic(fmt.Sprintf("noc: port count %d must be positive", ports))
	}
	links := make([]Link, ports)
	for i := range links {
		links[i] = NewLink(cfg.BytesPerCycle, cfg.Latency)
	}
	return &Crossbar{
		cfg:   cfg,
		ports: links,
		stats: make([]Stats, ports),
	}
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
