// Package pcie models the PCIe interconnect between the NIC and the root
// complex: a serial link whose effective goodput reflects TLP segmentation
// and link-layer overheads (~110 Gbps for PCIe 3.0 x16, matching the
// paper's §3.1), and the credit-based flow control that gives the paper
// its Little's-law throughput bound — posted-write credits are held from
// transmission until the root complex completes the memory write, so any
// inflation of downstream latency (IOTLB walks, loaded DRAM) directly
// reduces the achievable NIC-to-memory rate.
package pcie

import (
	"fmt"

	"hic/internal/metrics"
	"hic/internal/sim"
)

// Config describes one PCIe attachment point.
type Config struct {
	// Gen is the PCIe generation (1–5); the paper's testbed uses 3.
	Gen int
	// Lanes is the link width (x16 on the testbed).
	Lanes int
	// MaxPayload is the maximum TLP payload in bytes (typically 256).
	MaxPayload int
	// TLPOverhead is the per-TLP framing + header cost in bytes.
	TLPOverhead int
	// LinkEfficiency absorbs DLLP/ack/flow-control update overheads.
	LinkEfficiency float64
	// CreditBytes is the posted-write credit pool: the maximum bytes of
	// write transactions in flight between NIC and root complex.
	CreditBytes int
	// RootComplexLatency is the fixed pipeline cost per write transaction
	// in the root complex (ordering, scheduling, credit return).
	RootComplexLatency sim.Duration
}

// DefaultConfig returns the paper-testbed link: PCIe 3.0 x16 with a credit
// pool of ~7 4 KB packets.
func DefaultConfig() Config {
	return Config{
		Gen:                3,
		Lanes:              16,
		MaxPayload:         256,
		TLPOverhead:        28,
		LinkEfficiency:     0.97,
		CreditBytes:        30 << 10,
		RootComplexLatency: 1200 * sim.Nanosecond,
	}
}

// perLaneGbps is the post-encoding data rate per lane per generation.
var perLaneGbps = map[int]float64{
	1: 2.0,    // 2.5 GT/s, 8b/10b
	2: 4.0,    // 5 GT/s, 8b/10b
	3: 7.877,  // 8 GT/s, 128b/130b
	4: 15.754, // 16 GT/s, 128b/130b
	5: 31.508, // 32 GT/s, 128b/130b
}

func (c Config) validate() error {
	if _, ok := perLaneGbps[c.Gen]; !ok {
		return fmt.Errorf("pcie: unsupported generation %d", c.Gen)
	}
	switch c.Lanes {
	case 1, 2, 4, 8, 16:
	default:
		return fmt.Errorf("pcie: invalid lane count %d", c.Lanes)
	}
	if c.MaxPayload <= 0 {
		return fmt.Errorf("pcie: MaxPayload must be positive")
	}
	if c.TLPOverhead < 0 {
		return fmt.Errorf("pcie: negative TLPOverhead")
	}
	if c.LinkEfficiency <= 0 || c.LinkEfficiency > 1 {
		return fmt.Errorf("pcie: LinkEfficiency %v outside (0,1]", c.LinkEfficiency)
	}
	if c.CreditBytes <= 0 {
		return fmt.Errorf("pcie: CreditBytes must be positive")
	}
	if c.RootComplexLatency < 0 {
		return fmt.Errorf("pcie: negative RootComplexLatency")
	}
	return nil
}

// RawBandwidth returns the post-encoding link rate.
func (c Config) RawBandwidth() sim.BitsPerSecond {
	return sim.Gbps(perLaneGbps[c.Gen] * float64(c.Lanes))
}

// WireBytes returns the on-link size of a DMA of n payload bytes after
// TLP segmentation.
func (c Config) WireBytes(n int) int {
	if n <= 0 {
		return 0
	}
	tlps := (n + c.MaxPayload - 1) / c.MaxPayload
	return n + tlps*c.TLPOverhead
}

// Goodput returns the achievable payload rate for large DMAs: raw
// bandwidth derated by TLP segmentation and link-layer efficiency. For
// the default config this lands near the paper's ~110 Gbps figure.
func (c Config) Goodput() sim.BitsPerSecond {
	payload := float64(c.MaxPayload)
	frac := payload / float64(c.MaxPayload+c.TLPOverhead)
	return sim.BitsPerSecond(float64(c.RawBandwidth()) * frac * c.LinkEfficiency)
}

// Link is one direction of a PCIe attachment (NIC → root complex for
// receive DMA). It serializes transmissions and manages the posted-write
// credit pool.
type Link struct {
	engine *sim.Engine
	cfg    Config

	busyUntil sim.Time

	creditsFree int
	waiters     sim.FIFO[waiter]

	txBytes    *metrics.Counter
	txTLPs     *metrics.Counter
	creditWait *metrics.Histogram
	inFlight   *metrics.Gauge
}

type waiter struct {
	n       int
	since   sim.Time
	granted func()
}

// New constructs a link.
func New(engine *sim.Engine, reg *metrics.Registry, cfg Config) (*Link, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Link{
		engine:      engine,
		cfg:         cfg,
		creditsFree: cfg.CreditBytes,
		txBytes:     reg.Counter("pcie.tx.bytes"),
		txTLPs:      reg.Counter("pcie.tx.tlps"),
		creditWait:  reg.Histogram("pcie.credit.wait.ns"),
		inFlight:    reg.Gauge("pcie.inflight.bytes"),
	}, nil
}

// Config returns the link configuration.
func (l *Link) Config() Config { return l.cfg }

// Transmit serializes a DMA of n payload bytes onto the link and invokes
// done when its last TLP reaches the root complex. Transmissions are
// FIFO: the link is a single serial resource.
func (l *Link) Transmit(n int, done func()) {
	if n <= 0 {
		panic("pcie: non-positive transmit size")
	}
	wire := l.cfg.WireBytes(n)
	l.txBytes.Add(uint64(n))
	l.txTLPs.Add(uint64((n + l.cfg.MaxPayload - 1) / l.cfg.MaxPayload))

	rate := sim.BitsPerSecond(float64(l.cfg.RawBandwidth()) * l.cfg.LinkEfficiency)
	dur := rate.TransmitTime(wire)
	now := l.engine.Now()
	start := l.busyUntil
	if start < now {
		start = now
	}
	finish := start.Add(dur)
	l.busyUntil = finish
	l.engine.At(finish, done)
}

// AcquireCredits blocks (logically) until n credit bytes are available,
// then invokes granted. Grants are strictly FIFO so a large transaction
// cannot be starved by a stream of small ones.
func (l *Link) AcquireCredits(n int, granted func()) {
	if n <= 0 || n > l.cfg.CreditBytes {
		panic(fmt.Sprintf("pcie: credit request %d outside (0,%d]", n, l.cfg.CreditBytes))
	}
	if l.waiters.Len() == 0 && l.creditsFree >= n {
		l.grant(n, l.engine.Now(), granted)
		return
	}
	l.waiters.Push(waiter{n: n, since: l.engine.Now(), granted: granted})
}

func (l *Link) grant(n int, since sim.Time, granted func()) {
	l.creditsFree -= n
	l.inFlight.Set(int64(l.cfg.CreditBytes - l.creditsFree))
	l.creditWait.Observe(float64(l.engine.Now().Sub(since)))
	granted()
}

// ReleaseCredits returns n credit bytes to the pool and unblocks waiting
// acquirers in order.
func (l *Link) ReleaseCredits(n int) {
	if n <= 0 {
		panic("pcie: non-positive credit release")
	}
	l.creditsFree += n
	if l.creditsFree > l.cfg.CreditBytes {
		panic(fmt.Sprintf("pcie: credit overflow: %d > %d (double release?)",
			l.creditsFree, l.cfg.CreditBytes))
	}
	l.inFlight.Set(int64(l.cfg.CreditBytes - l.creditsFree))
	for l.waiters.Len() > 0 && l.creditsFree >= l.waiters.Front().n {
		w := l.waiters.Pop()
		l.grant(w.n, w.since, w.granted)
	}
}

// CreditsAvailable returns the free credit bytes.
func (l *Link) CreditsAvailable() int { return l.creditsFree }

// InFlightBytes returns the credit bytes currently held.
func (l *Link) InFlightBytes() int { return l.cfg.CreditBytes - l.creditsFree }

// CreditOccupancy returns the held fraction of the posted-write credit
// pool (0 = all free, 1 = exhausted). The observatory samples this as
// its normalized PCIe-backpressure severity.
func (l *Link) CreditOccupancy() float64 {
	return float64(l.cfg.CreditBytes-l.creditsFree) / float64(l.cfg.CreditBytes)
}

// QueuedWaiters returns how many acquirers are blocked on credits.
func (l *Link) QueuedWaiters() int { return l.waiters.Len() }

// WarmState is the link's contribution to a steady-state checkpoint.
// Credits are held by in-flight DMA records whose continuations are Go
// func values, so nothing here can be restored into a fresh run — the
// credit pool refills within microseconds once the warm-started
// datapath flows. The snapshot is record-only: it documents how deep
// the donor ran into the posted-write credit pool (checkpoint
// provenance, donor scoring).
type WarmState struct {
	InFlightBytes int `json:"in_flight_bytes"`
	QueuedWaiters int `json:"queued_waiters"`
}

// WarmState captures the link's credit occupancy for a checkpoint.
func (l *Link) WarmState() WarmState {
	return WarmState{InFlightBytes: l.InFlightBytes(), QueuedWaiters: l.QueuedWaiters()}
}

// OldestWaiterAge returns how long the head credit waiter has been
// blocked, or zero when credits are flowing. A sustained positive age is
// the Little's-law backpressure signal: downstream latency is holding
// posted-write credits and the NIC buffer can only drain at the
// credit-return rate. Drop attribution samples this.
func (l *Link) OldestWaiterAge() sim.Duration {
	if l.waiters.Len() == 0 {
		return 0
	}
	return l.engine.Now().Sub(l.waiters.Front().since)
}
