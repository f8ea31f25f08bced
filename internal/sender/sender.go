// Package sender models the transmit-side host datapath of a sender
// machine: the stack enqueues packets into a bounded NIC TX queue, the
// NIC fetches payload from host memory by DMA and serializes it onto the
// wire. The defining property — the paper's footnote 1 — is
// *backpressure*: when the TX path backs up (deep queue, contended
// memory), the NIC simply admits no more work and the stack holds its
// packets, so the sender side experiences delay but never the buffer
// overflows that plague the receive side. This package exists to
// demonstrate that asymmetry (the ext-sender experiment).
package sender

import (
	"fmt"

	"hic/internal/mem"
	"hic/internal/metrics"
	"hic/internal/pkt"
	"hic/internal/sim"
)

// Config sizes a sender host's TX path.
type Config struct {
	// TxQueuePackets bounds the NIC TX queue; a full queue backpressures
	// the stack (packets wait in software, nothing is dropped).
	TxQueuePackets int
	// LinkRate is the egress serialization rate.
	LinkRate sim.BitsPerSecond
	// Memory configures the sender's NUMA node.
	Memory mem.Config
}

// DefaultConfig returns a 100 Gbps sender host.
func DefaultConfig() Config {
	return Config{
		TxQueuePackets: 128,
		LinkRate:       sim.Gbps(100),
		Memory:         mem.DefaultConfig(),
	}
}

func (c Config) validate() error {
	if c.TxQueuePackets <= 0 {
		return fmt.Errorf("sender: TxQueuePackets must be positive")
	}
	if c.LinkRate <= 0 {
		return fmt.Errorf("sender: LinkRate must be positive")
	}
	return nil
}

// Host is one sender machine's TX path.
type Host struct {
	engine *sim.Engine
	cfg    Config
	memory *mem.Controller
	emit   func(*pkt.Packet)

	queued    int
	busyUntil sim.Time
	waiting   sim.FIFO[*pkt.Packet] // stack-side backpressure queue
	free      []*txDMA              // recycled per-packet TX records

	sent        *metrics.Counter
	backpressed *metrics.Counter
	txDelay     *metrics.Histogram
}

// New constructs a sender host. emit puts a packet on the wire (the
// fabric's sender ingress).
func New(engine *sim.Engine, reg *metrics.Registry, cfg Config, emit func(*pkt.Packet)) (*Host, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if emit == nil {
		return nil, fmt.Errorf("sender: emit is required")
	}
	memory, err := mem.New(engine, reg, cfg.Memory)
	if err != nil {
		return nil, err
	}
	return &Host{
		engine:      engine,
		cfg:         cfg,
		memory:      memory,
		emit:        emit,
		sent:        reg.Counter("sender.tx.packets"),
		backpressed: reg.Counter("sender.tx.backpressure"),
		txDelay:     reg.Histogram("sender.tx.delay.ns"),
	}, nil
}

// Memory exposes the sender's memory controller (antagonists attach
// here in the ext-sender experiment).
func (h *Host) Memory() *mem.Controller { return h.memory }

// QueuedPackets returns the TX queue depth (NIC-side).
func (h *Host) QueuedPackets() int { return h.queued }

// WaitingPackets returns the stack-side backpressure queue depth.
func (h *Host) WaitingPackets() int { return h.waiting.Len() }

// Send transmits a packet through the TX path. If the NIC queue is
// full, the packet waits in software — backpressure, never loss.
//
// Free-list ownership: Send takes ownership of p and hands it to emit
// when it reaches the wire. Because the TX path backpressures instead of
// dropping (the paper's footnote-1 asymmetry), no packet ever dies here
// and the sender host never calls pkt.Pool.Release — death happens
// downstream, at the fabric switch, the receiver NIC, or delivery.
func (h *Host) Send(p *pkt.Packet) {
	if h.queued >= h.cfg.TxQueuePackets {
		h.backpressed.Inc()
		h.waiting.Push(p)
		return
	}
	h.admit(p)
}

// admit starts the TX DMA: fetch the payload from host memory, then
// serialize it onto the wire.
func (h *Host) admit(p *pkt.Packet) {
	h.queued++
	var t *txDMA
	if k := len(h.free); k > 0 {
		t = h.free[k-1]
		h.free = h.free[:k-1]
	} else {
		t = &txDMA{h: h}
		t.fetchedFn = t.fetched
		t.sentFn = t.sent
	}
	t.p, t.start = p, h.engine.Now()
	h.memory.Read(p.WireBytes, t.fetchedFn)
}

// txDMA is one admitted packet's TX DMA. Its steps are func values
// bound once, when the record is created; a record returns to the
// host's free list when its packet reaches the wire.
type txDMA struct {
	h                 *Host
	p                 *pkt.Packet
	start             sim.Time
	fetchedFn, sentFn func()
}

// fetched serializes the fetched payload onto the wire.
func (t *txDMA) fetched() {
	h := t.h
	tx := h.busyUntil
	if now := h.engine.Now(); tx < now {
		tx = now
	}
	finish := tx.Add(h.cfg.LinkRate.TransmitTime(t.p.WireBytes))
	h.busyUntil = finish
	h.engine.At(finish, t.sentFn)
}

func (t *txDMA) sent() {
	h, p := t.h, t.p
	h.queued--
	h.sent.Inc()
	h.txDelay.Observe(float64(h.engine.Now().Sub(t.start)))
	t.p = nil
	h.free = append(h.free, t)
	h.emit(p)
	// Admission order is FIFO: the oldest waiting packet takes the
	// freed slot.
	if h.waiting.Len() > 0 && h.queued < h.cfg.TxQueuePackets {
		h.admit(h.waiting.Pop())
	}
}

// Stats is a snapshot of TX activity.
type Stats struct {
	Sent          uint64
	Backpressured uint64
	TxDelayP99Ns  float64
}

// Stats returns current counters.
func (h *Host) Stats() Stats {
	return Stats{
		Sent:          h.sent.Value(),
		Backpressured: h.backpressed.Value(),
		TxDelayP99Ns:  h.txDelay.Quantile(0.99),
	}
}
