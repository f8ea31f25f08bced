// Package transport implements the reliable transport running between the
// sender machines and the receiver host: per-connection congestion-
// controlled data streams (the paper's 16 KB remote reads segmented into
// 4 KB-MTU packets), per-packet acknowledgements carrying the delay
// signals congestion control consumes, and timeout-based loss recovery.
//
// Congestion control is pluggable through the CongestionControl
// interface; the swift and dctcp subpackages provide the paper's
// protocol and the TCP-like baseline respectively.
package transport

import (
	"fmt"

	"hic/internal/metrics"
	"hic/internal/pkt"
	"hic/internal/sim"
)

// AckInfo is the signal set delivered to congestion control on every ACK.
type AckInfo struct {
	// Now is the ACK arrival time at the sender.
	Now sim.Time
	// RTT is the full send→ack round trip.
	RTT sim.Duration
	// FabricDelay is the forward one-way fabric component.
	FabricDelay sim.Duration
	// HostDelay is the receiver-host component (NIC arrival → delivery),
	// the signal Swift's host target compares against.
	HostDelay sim.Duration
	// ECN is the fabric congestion mark (DCTCP baseline).
	ECN bool
	// HostECN is the sub-RTT host congestion mark (§4 extension).
	HostECN bool
	// AckedBytes is the payload acknowledged.
	AckedBytes int
}

// CongestionControl is the per-connection congestion controller.
type CongestionControl interface {
	// OnAck processes one acknowledgement.
	OnAck(info AckInfo)
	// OnLoss reports a timeout-detected loss.
	OnLoss(now sim.Time)
	// Cwnd returns the congestion window in packets (may be fractional;
	// values below 1 mean the connection paces slower than 1 packet/RTT).
	Cwnd() float64
	// Name identifies the protocol in reports.
	Name() string
}

// Config describes a connection.
type Config struct {
	// MTU is the data payload per packet (paper: 4 KB).
	MTU int
	// ReadSize is the RPC read size (paper: 16 KB) — an accounting
	// granularity: ReadSize/MTU packets complete one read.
	ReadSize int
	// RTOMin is the minimum retransmission timeout.
	RTOMin sim.Duration
	// RTOSRTTFactor scales smoothed RTT into the timeout.
	RTOSRTTFactor float64
	// RetxScan is the period of the retransmission scan.
	RetxScan sim.Duration
	// MaxInflightPackets caps the window regardless of cwnd (descriptor
	// and buffer provisioning at the receiver).
	MaxInflightPackets int
	// AppRateLimit caps the connection's offered load in bits/second
	// (0 = unlimited). Application-limited senders are how a host can
	// run well below its access-link rate — and still drop packets when
	// the host interconnect capacity falls below even that (Figure 1's
	// low-utilization drops).
	AppRateLimit sim.BitsPerSecond
}

// DefaultConfig returns the paper-workload connection configuration.
func DefaultConfig() Config {
	return Config{
		MTU:                4096,
		ReadSize:           16 << 10,
		RTOMin:             200 * sim.Microsecond,
		RTOSRTTFactor:      3,
		RetxScan:           50 * sim.Microsecond,
		MaxInflightPackets: 256,
	}
}

func (c Config) validate() error {
	if c.MTU <= 0 {
		return fmt.Errorf("transport: MTU must be positive")
	}
	if c.ReadSize < c.MTU {
		return fmt.Errorf("transport: ReadSize %d < MTU %d", c.ReadSize, c.MTU)
	}
	if c.RTOMin <= 0 || c.RetxScan <= 0 {
		return fmt.Errorf("transport: RTOMin and RetxScan must be positive")
	}
	if c.RTOSRTTFactor < 1 {
		return fmt.Errorf("transport: RTOSRTTFactor %v < 1", c.RTOSRTTFactor)
	}
	if c.MaxInflightPackets <= 0 {
		return fmt.Errorf("transport: MaxInflightPackets must be positive")
	}
	if c.AppRateLimit < 0 {
		return fmt.Errorf("transport: negative AppRateLimit")
	}
	return nil
}

type sentInfo struct {
	at        sim.Time
	payload   int
	retx      int
	laterAcks int // acks for higher sequences seen since (re)send
}

// readInfo tracks one ReadSize read (RPC) until its last packet is
// acknowledged.
type readInfo struct {
	start sim.Time // first packet sent; retransmissions do not reset it
	acked int      // distinct packets acknowledged
}

// window holds records for consecutive ids [base, base+span()) — the
// sequences of sent-but-unacknowledged packets, or the numbers of
// unfinished reads. Ids are issued in order, so slot i belongs to id
// base+i; ids retired inside the span stay as dead slots until the
// retired prefix is trimmed, and walking the slots front to back
// visits the live ids in ascending order with no sort, no map and no
// allocation.
type window[T any] struct {
	slots sim.FIFO[windowSlot[T]]
	base  uint64
	live  int
}

type windowSlot[T any] struct {
	val  T
	live bool
}

// len returns the number of live ids.
func (w *window[T]) len() int { return w.live }

// span returns the number of slots, live or dead.
func (w *window[T]) span() int { return w.slots.Len() }

// at returns the record of id base+i and whether it is live.
func (w *window[T]) at(i int) (*T, bool) {
	s := w.slots.At(i)
	return &s.val, s.live
}

// push records a newly issued id, which must be the next one after the
// span (any id when the window is empty).
func (w *window[T]) push(id uint64, v T) {
	if w.slots.Len() == 0 {
		w.base = id
	} else if end := w.base + uint64(w.slots.Len()); id != end {
		panic(fmt.Sprintf("transport: id %d issued out of order (window [%d,%d))", id, w.base, end))
	}
	w.slots.Push(windowSlot[T]{val: v, live: true})
	w.live++
}

// get returns the record of id, or nil if id is not live.
func (w *window[T]) get(id uint64) *T {
	if id < w.base || id-w.base >= uint64(w.slots.Len()) {
		return nil
	}
	if v, live := w.at(int(id - w.base)); live {
		return v
	}
	return nil
}

// retire marks a live id done and trims the retired prefix.
func (w *window[T]) retire(id uint64) {
	w.slots.At(int(id - w.base)).live = false
	w.live--
	for w.slots.Len() > 0 && !w.slots.At(0).live {
		w.slots.Pop()
		w.base++
	}
}

// fastRetxDupAcks is the dup-ack threshold for fast retransmit: once this
// many later packets are acknowledged while a sequence is outstanding,
// the packet is declared lost without waiting for the RTO.
const fastRetxDupAcks = 3

// Conn is the sender side of one connection (one sender machine ↔ one
// receiver thread). It models an infinite stream of 16 KB remote reads:
// the sender always has payload available and the congestion controller
// alone sets the rate.
type Conn struct {
	engine *sim.Engine
	cfg    Config
	cc     CongestionControl
	flow   uint32
	sender int
	queue  int
	emit   func(sender int, p *pkt.Packet)

	nextSeq   uint64
	nextID    uint64
	inflight  window[sentInfo]
	srtt      sim.Duration
	pool      *pkt.Pool // packet free list; data packets are drawn here
	trySendFn func()    // c.trySend bound once, for pacing reschedules

	// Per-read (RPC) completion tracking for tail-latency measurement.
	reads window[readInfo]

	paceUntil sim.Time // earliest next send when cwnd < 1
	appUntil  sim.Time // earliest next send under the app rate limit
	inactive  bool     // application idle (burst off-phase)

	sent      *metrics.Counter
	ackedB    *metrics.Counter
	retx      *metrics.Counter
	losses    *metrics.Counter
	rttHist   *metrics.Histogram
	hostDHist *metrics.Histogram
	readHist  *metrics.Histogram // ns, 16KB read issue → fully acked
}

// RetxClock is the retransmission-scan timer shared by every connection
// of one host: one event per RetxScan period, however many connections.
// Each tick scans the connections in creation order and skips those
// with nothing outstanding (such a scan does nothing). The order is
// fixed, not the order windows last filled, so which connections time
// out on a tick never changes the order their retransmissions leave in.
type RetxClock struct {
	period sim.Duration
	conns  []*Conn
}

// NewRetxClock starts a scan clock ticking every period, which must be
// positive. Connections join it in NewConn.
func NewRetxClock(engine *sim.Engine, period sim.Duration) *RetxClock {
	k := &RetxClock{period: period}
	engine.Every(period, k.tick)
	return k
}

func (k *RetxClock) tick() {
	for _, c := range k.conns {
		if c.inflight.len() > 0 {
			c.scanRetransmits()
		}
	}
}

// NewConn creates a connection scanned for timeouts by clock, whose
// period must equal cfg.RetxScan. emit injects a packet into the fabric
// on behalf of this connection's sender machine.
func NewConn(engine *sim.Engine, reg *metrics.Registry, cfg Config, clock *RetxClock, cc CongestionControl,
	flow uint32, sender, queue int, emit func(sender int, p *pkt.Packet)) (*Conn, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if clock == nil || cc == nil || emit == nil {
		return nil, fmt.Errorf("transport: clock, cc and emit are required")
	}
	if clock.period != cfg.RetxScan {
		return nil, fmt.Errorf("transport: RetxScan %v differs from the scan clock's period %v", cfg.RetxScan, clock.period)
	}
	c := &Conn{
		engine:    engine,
		cfg:       cfg,
		cc:        cc,
		flow:      flow,
		sender:    sender,
		queue:     queue,
		emit:      emit,
		srtt:      20 * sim.Microsecond, // prior until measured
		sent:      reg.Counter("transport.sent.packets"),
		ackedB:    reg.Counter("transport.acked.bytes"),
		retx:      reg.Counter("transport.retx.packets"),
		losses:    reg.Counter("transport.losses"),
		rttHist:   reg.Histogram("transport.rtt.ns"),
		hostDHist: reg.Histogram("transport.host.delay.ns"),
		readHist:  reg.Histogram("transport.read.latency.ns"),
	}
	c.trySendFn = c.trySend
	clock.conns = append(clock.conns, c)
	return c, nil
}

// SetPool installs the run's packet free list: new data packets
// (including retransmissions) are drawn from it instead of the heap. The
// connection never releases — ownership of an emitted packet passes to
// the fabric and onward to whichever component sees it die.
func (c *Conn) SetPool(pool *pkt.Pool) { c.pool = pool }

// Start begins transmission.
func (c *Conn) Start() { c.trySend() }

// StartAfter schedules Start d from now through the connection's bound
// send callback, so staggering many starts allocates no closures.
func (c *Conn) StartAfter(d sim.Duration) { c.engine.After(d, c.trySendFn) }

// CC exposes the connection's congestion controller.
func (c *Conn) CC() CongestionControl { return c.cc }

// Flow returns the connection's flow identifier.
func (c *Conn) Flow() uint32 { return c.flow }

// SRTT returns the smoothed RTT estimate.
func (c *Conn) SRTT() sim.Duration { return c.srtt }

// InflightPackets returns the current outstanding packet count.
func (c *Conn) InflightPackets() int { return c.inflight.len() }

// WarmState is a connection's serializable congestion state — the part
// of steady state that takes many RTTs to re-learn on a cold start and
// therefore dominates the ramp a warm-started simulation skips.
type WarmState struct {
	Cwnd float64      `json:"cwnd"`
	SRTT sim.Duration `json:"srtt"`
}

// CwndPrimer is implemented by congestion controllers whose window can
// be seeded from a converged donor run (Swift, DCTCP). Fixed-window
// controllers deliberately do not implement it: their window is part of
// the scenario, not learned state.
type CwndPrimer interface {
	SetCwnd(cwnd float64)
}

// WarmState captures the connection's congestion state for a steady-
// state checkpoint.
func (c *Conn) WarmState() WarmState {
	return WarmState{Cwnd: c.cc.Cwnd(), SRTT: c.srtt}
}

// Prime seeds the connection with donor congestion state. Call before
// Start: the first transmissions then pace at the donor's converged
// window and RTT estimate instead of the configured initial window. The
// controller's own clamps stay authoritative, and non-positive donor
// values are ignored.
func (c *Conn) Prime(ws WarmState) {
	if ws.SRTT > 0 {
		c.srtt = ws.SRTT
	}
	if ws.Cwnd > 0 {
		if p, ok := c.cc.(CwndPrimer); ok {
			p.SetCwnd(ws.Cwnd)
		}
	}
}

// SetActive pauses (false) or resumes (true) the application. While
// inactive the connection sends nothing new; in-flight packets drain
// normally. Bursty workloads toggle this — and because the congestion
// window survives the idle phase, reactivation slams the receiver at the
// old rate, the burst behaviour behind Figure 1's low-utilization drops.
func (c *Conn) SetActive(active bool) {
	if c.inactive == !active {
		return
	}
	c.inactive = !active
	if active {
		c.trySend()
	}
}

// trySend transmits as long as the congestion window allows. For cwnd<1
// it paces: one packet every srtt/cwnd.
func (c *Conn) trySend() {
	if c.inactive {
		return
	}
	for {
		cwnd := c.cc.Cwnd()
		limit := int(cwnd)
		if limit > c.cfg.MaxInflightPackets {
			limit = c.cfg.MaxInflightPackets
		}
		now := c.engine.Now()
		if c.cfg.AppRateLimit > 0 && now < c.appUntil {
			c.engine.At(c.appUntil, c.trySendFn)
			return
		}
		if cwnd < 1 {
			if c.inflight.len() > 0 {
				return // sub-1 window: at most one packet outstanding
			}
			if now < c.paceUntil {
				c.engine.At(c.paceUntil, c.trySendFn)
				return
			}
			// ±15% deterministic jitter desynchronizes the hundreds of
			// sub-1-cwnd flows sharing the access link; without it their
			// sawtooths can resonate and underutilize the link.
			interval := c.engine.RNG().Jitter(sim.Duration(float64(c.srtt)/cwnd), 0.15)
			c.paceUntil = now.Add(interval)
			c.sendOne()
			return
		}
		if c.inflight.len() >= limit {
			return
		}
		c.sendOne()
	}
}

func (c *Conn) sendOne() {
	if c.cfg.AppRateLimit > 0 {
		c.appUntil = c.engine.Now().Add(c.cfg.AppRateLimit.TransmitTime(c.cfg.MTU))
	}
	seq := c.nextSeq
	c.nextSeq++
	p := c.pool.Data(c.nextID, c.flow, c.queue, seq, c.cfg.MTU)
	c.nextID++
	p.ReqID = seq / uint64(c.cfg.ReadSize/c.cfg.MTU)
	if c.reads.get(p.ReqID) == nil {
		// First packet of a 16 KB read: the RPC clock starts here
		// (retransmissions do not reset it).
		c.reads.push(p.ReqID, readInfo{start: c.engine.Now()})
	}
	c.inflight.push(seq, sentInfo{at: c.engine.Now(), payload: c.cfg.MTU})
	c.sent.Inc()
	c.emit(c.sender, p)
}

// completeReadPacket advances RPC accounting for an acked sequence and
// records the read's completion latency when its last packet arrives.
func (c *Conn) completeReadPacket(seq uint64) {
	per := c.cfg.ReadSize / c.cfg.MTU
	req := seq / uint64(per)
	r := c.reads.get(req)
	r.acked++
	if r.acked < per {
		return
	}
	c.readHist.Observe(float64(c.engine.Now().Sub(r.start)))
	c.reads.retire(req)
}

// OnAck processes an acknowledgement arriving from the fabric.
func (c *Conn) OnAck(a *pkt.Packet) {
	info := c.inflight.get(a.AckSeq)
	if info == nil {
		return // duplicate ack for an already-retired packet
	}
	sentAt, retx := info.at, info.retx
	c.inflight.retire(a.AckSeq)
	c.completeReadPacket(a.AckSeq)
	now := c.engine.Now()
	rtt := now.Sub(sentAt)
	if retx == 0 {
		// Karn's rule: only un-retransmitted samples update the RTT.
		if c.srtt == 0 {
			c.srtt = rtt
		} else {
			c.srtt = c.srtt/8*7 + rtt/8
		}
		c.rttHist.Observe(float64(rtt))
		c.hostDHist.Observe(float64(a.EchoHostDelay))
	}
	c.fastRetransmit(a.AckSeq)
	c.ackedB.Add(uint64(a.AckedBytes))
	c.cc.OnAck(AckInfo{
		Now:         now,
		RTT:         rtt,
		FabricDelay: a.EchoFabric,
		HostDelay:   a.EchoHostDelay,
		ECN:         a.EchoECN,
		HostECN:     a.HostECN,
		AckedBytes:  a.AckedBytes,
	})
	c.trySend()
}

// fastRetransmit counts later-sequence acknowledgements against each
// still-outstanding earlier sequence; at the dup-ack threshold the packet
// is resent immediately and the loss reported to congestion control.
// Loss episodes then end within ~1 RTT instead of a full RTO.
func (c *Conn) fastRetransmit(ackedSeq uint64) {
	lost := false
	w := &c.inflight
	for i := 0; i < w.span() && w.base+uint64(i) < ackedSeq; i++ {
		info, live := w.at(i)
		if !live {
			continue
		}
		info.laterAcks++
		if info.laterAcks < fastRetxDupAcks {
			continue
		}
		lost = true
		info.at = c.engine.Now()
		info.retx++
		info.laterAcks = 0
		c.resend(w.base+uint64(i), info.payload)
	}
	if lost {
		c.losses.Inc()
		c.cc.OnLoss(c.engine.Now())
	}
}

// resend retransmits seq as a fresh packet.
func (c *Conn) resend(seq uint64, payload int) {
	c.retx.Inc()
	p := c.pool.Data(c.nextID, c.flow, c.queue, seq, payload)
	c.nextID++
	p.ReqID = seq / uint64(c.cfg.ReadSize/c.cfg.MTU)
	c.emit(c.sender, p)
}

// rto returns the current retransmission timeout.
func (c *Conn) rto() sim.Duration {
	rto := sim.Duration(float64(c.srtt) * c.cfg.RTOSRTTFactor)
	if rto < c.cfg.RTOMin {
		rto = c.cfg.RTOMin
	}
	return rto
}

// scanRetransmits resends packets whose timeout has expired and informs
// congestion control of the loss (once per scan; the controller applies
// its own per-RTT clamp).
func (c *Conn) scanRetransmits() {
	now := c.engine.Now()
	rto := c.rto()
	lost := false
	w := &c.inflight
	for i := 0; i < w.span(); i++ {
		info, live := w.at(i)
		if !live {
			continue
		}
		// Exponential backoff per retransmission: the smoothed RTT lags
		// badly when host queues balloon (Karn's rule excludes
		// retransmitted samples), and without backoff a too-short RTO
		// spirals into a spurious-retransmission storm.
		backoff := info.retx
		if backoff > 6 {
			backoff = 6
		}
		if now.Sub(info.at) < rto<<uint(backoff) {
			continue
		}
		lost = true
		// Karn's rule keeps retransmitted samples out of srtt, but when
		// every packet times out srtt would never learn the true RTT
		// and the too-short RTO would fire forever. A timeout is itself
		// a lower-bound RTT observation: pull srtt up to the elapsed
		// wait.
		if elapsed := now.Sub(info.at); elapsed > c.srtt {
			c.srtt = elapsed
		}
		info.at = now
		info.retx++
		info.laterAcks = 0
		c.resend(w.base+uint64(i), info.payload)
	}
	if lost {
		c.losses.Inc()
		c.cc.OnLoss(now)
		c.trySend()
	}
}

// Stats is a snapshot of sender-side connection activity.
type Stats struct {
	SentPackets   uint64
	AckedBytes    uint64
	Retransmits   uint64
	LossEvents    uint64
	InflightCount int
}

// Stats returns current counters.
func (c *Conn) Stats() Stats {
	return Stats{
		SentPackets:   c.sent.Value(),
		AckedBytes:    c.ackedB.Value(),
		Retransmits:   c.retx.Value(),
		LossEvents:    c.losses.Value(),
		InflightCount: c.inflight.len(),
	}
}
