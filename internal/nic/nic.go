// Package nic models the receiver-side NIC of Figure 2 in the paper: a
// small SRAM input buffer that tail-drops when full, per-queue Rx
// descriptor rings replenished by the driver, and a DMA engine that moves
// each packet to host memory through the PCIe link (credit flow control),
// the IOMMU (address translation), and the memory controller.
//
// The input buffer is shared across all flows — exactly why the paper uses
// the drop rate as a proxy for isolation violations — and is drained in
// FIFO order. A packet leaves the buffer once its TLPs have been accepted
// by the root complex; the posted-write credits it holds are returned only
// when the memory write completes, so downstream latency (IOTLB walks,
// loaded DRAM) backpressures the buffer exactly as §2 step 6 describes.
package nic

import (
	"fmt"

	"hic/internal/iommu"
	"hic/internal/mem"
	"hic/internal/metrics"
	"hic/internal/pcie"
	"hic/internal/pkt"
	"hic/internal/sim"
	"hic/internal/telemetry"
)

// Planner supplies DMA target addresses. The host wires this to the
// per-thread Rx memory regions registered with the IOMMU; the NIC itself
// is address-agnostic.
type Planner interface {
	// PlanRx returns the payload, descriptor-ring and completion-ring
	// addresses for the next received packet on the given queue.
	PlanRx(queue, payloadBytes int) (payload, descriptor, completion uint64)
	// PlanTx returns the TX descriptor-ring and buffer addresses for an
	// outgoing packet (ACKs).
	PlanTx(queue, payloadBytes int) (descriptor, buffer uint64)
}

// Config sizes the NIC. Defaults mirror the paper's testbed: ~1 MB of
// input buffer (the source of the ≈90 µs drain horizon at line rate).
type Config struct {
	// BufferBytes is the shared SRAM input buffer capacity.
	BufferBytes int
	// Queues is the number of Rx queues (one per receiver thread).
	Queues int
	// RingSize is the descriptor count per Rx queue.
	RingSize int
	// DescriptorBytes / CompletionBytes are the per-packet metadata DMA
	// sizes (one cache line each).
	DescriptorBytes int
	CompletionBytes int
	// DriverReplenish is the period of the driver's descriptor top-up.
	DriverReplenish sim.Duration
	// TxTranslation controls whether outgoing packets (ACKs) translate
	// their buffer address through the IOMMU — the paper's footnote 3
	// counts the ACK among the up-to-6 translations per packet.
	TxTranslation bool
	// HostECNThreshold, if positive, sets HostECN on packets admitted
	// while buffer occupancy exceeds this many bytes (§4 sub-RTT
	// congestion-signal extension). Zero disables it.
	HostECNThreshold int
	// PerQueueBuffers partitions the input buffer into Queues equal
	// slices with round-robin DMA service — a "rethinking host
	// architecture" ablation: partitioning trades buffering efficiency
	// for isolation (an overloaded queue can no longer drop other
	// queues' packets) and removes cross-queue head-of-line blocking.
	// The paper's shared-SRAM NIC is the false default.
	PerQueueBuffers bool
}

// DefaultConfig returns the testbed NIC configuration for the given
// number of queues.
func DefaultConfig(queues int) Config {
	return Config{
		BufferBytes:     1 << 20,
		Queues:          queues,
		RingSize:        256,
		DescriptorBytes: 64,
		CompletionBytes: 64,
		DriverReplenish: 50 * sim.Microsecond,
		TxTranslation:   true,
	}
}

func (c Config) validate() error {
	if c.BufferBytes <= 0 {
		return fmt.Errorf("nic: BufferBytes must be positive")
	}
	if c.Queues <= 0 {
		return fmt.Errorf("nic: Queues must be positive")
	}
	if c.RingSize <= 0 {
		return fmt.Errorf("nic: RingSize must be positive")
	}
	if c.DescriptorBytes <= 0 || c.CompletionBytes <= 0 {
		return fmt.Errorf("nic: descriptor/completion bytes must be positive")
	}
	if c.DriverReplenish <= 0 {
		return fmt.Errorf("nic: DriverReplenish must be positive")
	}
	if c.HostECNThreshold < 0 {
		return fmt.Errorf("nic: negative HostECNThreshold")
	}
	return nil
}

// NIC is the receiver-side NIC.
type NIC struct {
	engine  *sim.Engine
	link    *pcie.Link
	mmu     *iommu.IOMMU
	memory  *mem.Controller
	planner Planner
	cfg     Config
	deliver func(*pkt.Packet)

	// buffers[0] is the single shared FIFO; with PerQueueBuffers there
	// is one FIFO per queue, each owning BufferBytes/Queues of SRAM.
	buffers     []sim.FIFO[*pkt.Packet]
	bufUsed     []int
	bufCap      int // capacity per buffer
	rrNext      int // round-robin cursor for partitioned service
	bufferUsed  int // total, across partitions
	dropsByFlow map[uint32]uint64
	tap         func(*pkt.Packet) // capture hook, sees every arrival
	tracer      *telemetry.Tracer // head-based span sampling (nil = off)
	ledger      *telemetry.DropLedger
	pool        *pkt.Pool // packet free list; tail drops release here
	pumping     bool
	stalled     bool // every serviceable buffer blocked on descriptors

	descriptors []int // available descriptors per queue

	txBusyUntil sim.Time

	// Free lists of the per-DMA state records (see rxDMA and txDMA):
	// a steady packet stream recycles them instead of allocating.
	freeRx []*rxDMA
	freeTx []*txDMA

	rxPackets  *metrics.Counter
	rxBytes    *metrics.Counter
	rxPayload  *metrics.Counter
	drops      *metrics.Counter
	dropBytes  *metrics.Counter
	descStalls *metrics.Counter
	txPackets  *metrics.Counter
	bufferGa   *metrics.Gauge
	hostDelay  *metrics.Histogram // ns, NIC arrival → delivery
	dmaLatency *metrics.Histogram // ns, DMA start → credit release
	missesHist *metrics.Histogram // IOTLB misses per packet (Rx chain)
	// Per-stage DMA latency decomposition: the empirical version of the
	// paper's T_base + M·T_miss split.
	stageWait  *metrics.Histogram // ns, buffer head → credits granted
	stageLink  *metrics.Histogram // ns, link serialization (incl. queueing)
	stageXlate *metrics.Histogram // ns, address translations (walks)
	stageMem   *metrics.Histogram // ns, memory writes + descriptor read
	stageRC    *metrics.Histogram // ns, root-complex pipeline
}

// New constructs the NIC. deliver is invoked when a packet's DMA
// completes and it is visible to host software.
func New(engine *sim.Engine, reg *metrics.Registry, link *pcie.Link, mmu *iommu.IOMMU,
	memory *mem.Controller, planner Planner, cfg Config, deliver func(*pkt.Packet)) (*NIC, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if planner == nil || deliver == nil {
		return nil, fmt.Errorf("nic: planner and deliver are required")
	}
	n := &NIC{
		engine:      engine,
		link:        link,
		mmu:         mmu,
		memory:      memory,
		planner:     planner,
		cfg:         cfg,
		deliver:     deliver,
		descriptors: make([]int, cfg.Queues),
		dropsByFlow: make(map[uint32]uint64),
		rxPackets:   reg.Counter("nic.rx.packets"),
		rxBytes:     reg.Counter("nic.rx.bytes"),
		rxPayload:   reg.Counter("nic.rx.payload.bytes"),
		drops:       reg.Counter("nic.rx.drops"),
		dropBytes:   reg.Counter("nic.rx.drop.bytes"),
		descStalls:  reg.Counter("nic.rx.descriptor.stalls"),
		txPackets:   reg.Counter("nic.tx.packets"),
		bufferGa:    reg.Gauge("nic.buffer.bytes"),
		hostDelay:   reg.Histogram("nic.host.delay.ns"),
		dmaLatency:  reg.Histogram("nic.dma.latency.ns"),
		missesHist:  reg.Histogram("nic.iotlb.misses.per.packet"),
		stageWait:   reg.Histogram("nic.dma.stage.creditwait.ns"),
		stageLink:   reg.Histogram("nic.dma.stage.link.ns"),
		stageXlate:  reg.Histogram("nic.dma.stage.translate.ns"),
		stageMem:    reg.Histogram("nic.dma.stage.memory.ns"),
		stageRC:     reg.Histogram("nic.dma.stage.rootcomplex.ns"),
	}
	for q := range n.descriptors {
		n.descriptors[q] = cfg.RingSize
	}
	if cfg.PerQueueBuffers {
		n.buffers = make([]sim.FIFO[*pkt.Packet], cfg.Queues)
		n.bufUsed = make([]int, cfg.Queues)
		n.bufCap = cfg.BufferBytes / cfg.Queues
	} else {
		n.buffers = make([]sim.FIFO[*pkt.Packet], 1)
		n.bufUsed = make([]int, 1)
		n.bufCap = cfg.BufferBytes
	}
	engine.Every(cfg.DriverReplenish, n.driverTick)
	return n, nil
}

// driverTick is the periodic driver pass that tops descriptor rings up,
// modelling the "driver periodically replenishes these descriptors" step.
func (n *NIC) driverTick() {
	for q := range n.descriptors {
		n.descriptors[q] = n.cfg.RingSize
	}
	if n.stalled {
		n.stalled = false
		n.pump()
	}
}

// Receive accepts a packet from the access link. If the shared input
// buffer cannot hold it, the packet is tail-dropped — host congestion
// becoming packet loss.
func (n *NIC) Receive(p *pkt.Packet) {
	if p.Queue < 0 || p.Queue >= n.cfg.Queues {
		panic(fmt.Sprintf("nic: packet for queue %d with %d queues", p.Queue, n.cfg.Queues))
	}
	// Every packet that reaches the NIC gets its arrival stamp — drops
	// included — before the capture tap sees it.
	p.NICArrival = n.engine.Now()
	if n.tap != nil {
		n.tap(p)
	}
	b := 0
	if n.cfg.PerQueueBuffers {
		b = p.Queue
	}
	if n.bufUsed[b]+p.WireBytes > n.bufCap {
		n.drops.Inc()
		n.dropBytes.Add(uint64(p.WireBytes))
		n.dropsByFlow[p.Flow]++
		if n.ledger != nil {
			// Attribute the drop to its root cause using the pipeline
			// state active right now (§3's causal question).
			n.ledger.Record(p.NICArrival, p.Flow, p.Queue)
		}
		// A tail drop is where this packet dies; the NIC owns it here.
		n.pool.Release(p)
		return
	}
	if n.cfg.HostECNThreshold > 0 && n.bufferUsed >= n.cfg.HostECNThreshold {
		p.HostECN = true
	}
	n.buffers[b].Push(p)
	n.bufUsed[b] += p.WireBytes
	n.bufferUsed += p.WireBytes
	n.bufferGa.Set(int64(n.bufferUsed))
	n.rxPackets.Inc()
	n.rxBytes.Add(uint64(p.WireBytes))
	if n.tracer != nil {
		p.Span = n.tracer.MaybeStart(p.ID, p.Flow, p.Queue, p.Seq, p.NICArrival,
			telemetry.Attr{Key: "buffer_bytes", Value: float64(n.bufferUsed)},
			telemetry.Attr{Key: "wire_bytes", Value: float64(p.WireBytes)})
	}
	n.pump()
}

// selectBuffer picks the next buffer to service. The shared buffer is
// strict FIFO (and head-of-line blocks on a missing descriptor, as a
// single SRAM queue must); partitioned buffers are served round-robin
// and a descriptor-starved queue is skipped rather than blocking others.
func (n *NIC) selectBuffer() int {
	if !n.cfg.PerQueueBuffers {
		if n.buffers[0].Len() == 0 {
			return -1
		}
		if n.descriptors[n.buffers[0].Front().Queue] == 0 {
			n.descStalls.Inc()
			n.stalled = true
			return -1
		}
		return 0
	}
	nonEmpty := false
	for i := 0; i < len(n.buffers); i++ {
		b := (n.rrNext + i) % len(n.buffers)
		if n.buffers[b].Len() == 0 {
			continue
		}
		nonEmpty = true
		if n.descriptors[n.buffers[b].Front().Queue] == 0 {
			n.descStalls.Inc()
			continue
		}
		n.rrNext = (b + 1) % len(n.buffers)
		return b
	}
	if nonEmpty {
		n.stalled = true // every backlogged queue lacks descriptors
	}
	return -1
}

// pump starts the DMA for the next packet when a descriptor and PCIe
// credits are available. Only one packet is between "head of buffer" and
// "TLPs on the link" at a time; the link itself serializes transfers and
// the credit pool bounds how many writes are outstanding downstream.
func (n *NIC) pump() {
	if n.pumping || n.stalled {
		return
	}
	b := n.selectBuffer()
	if b < 0 {
		return
	}
	head := n.buffers[b].Front()
	n.descriptors[head.Queue]--
	n.pumping = true
	d := n.newRxDMA(head, b)
	if head.Span != nil {
		head.Span.Advance(telemetry.StageNICBuffer, d.pumpStart)
	}
	n.link.AcquireCredits(d.creditBytes, d.grantedFn)
}

// rxDMA is the state of one received packet's DMA from the head of the
// NIC buffer to delivery: credit wait, link transfer, then the
// root-complex chain of three translate → memory-access stages
// (descriptor read, payload write, completion write) and the fixed
// root-complex latency. Its step methods are bound to func values once,
// when the record is created, and those same values are passed to the
// link, the IOMMU, the memory controller and the engine at every step;
// a delivered packet's record returns to the NIC's free list.
type rxDMA struct {
	n           *NIC
	p           *pkt.Packet
	buf         int // input buffer the packet occupies until the link takes it
	creditBytes int

	pumpStart, dmaStart, stageStart, rcStart sim.Time

	// stage indexes the root-complex chain: 0 descriptor read, 1 payload
	// write, 2 completion write.
	stage                            int
	payloadAddr, descAddr, complAddr uint64
	misses                           int
	xlateNs, memNs                   float64
	lf, qd                           float64 // memory state at issue (sampled spans only)

	grantedFn, linkedFn, memDoneFn, deliverFn func()
	translatedFn                              func(iommu.TranslationResult)
}

func (n *NIC) newRxDMA(p *pkt.Packet, buf int) *rxDMA {
	var d *rxDMA
	if k := len(n.freeRx); k > 0 {
		d = n.freeRx[k-1]
		n.freeRx = n.freeRx[:k-1]
	} else {
		d = &rxDMA{n: n}
		d.grantedFn = d.granted
		d.linkedFn = d.linked
		d.translatedFn = d.translated
		d.memDoneFn = d.memDone
		d.deliverFn = d.deliver
	}
	d.p, d.buf = p, buf
	d.creditBytes = n.link.Config().WireBytes(p.PayloadBytes + n.cfg.CompletionBytes)
	d.pumpStart = n.engine.Now()
	return d
}

// granted runs when the posted-write credits are held: the TLPs go onto
// the link.
func (d *rxDMA) granted() {
	n, p := d.n, d.p
	d.dmaStart = n.engine.Now()
	n.stageWait.Observe(float64(d.dmaStart.Sub(d.pumpStart)))
	if p.Span != nil {
		p.Span.Advance(telemetry.StageCreditWait, d.dmaStart,
			telemetry.Attr{Key: "credit_bytes", Value: float64(d.creditBytes)},
			telemetry.Attr{Key: "credits_free", Value: float64(n.link.CreditsAvailable())})
	}
	n.link.Transmit(p.PayloadBytes, d.linkedFn)
}

// linked runs when the root complex has accepted the TLPs: the packet no
// longer occupies NIC SRAM, the next packet may start, and the
// downstream write chain begins.
func (d *rxDMA) linked() {
	n, p := d.n, d.p
	n.stageLink.Observe(float64(n.engine.Now().Sub(d.dmaStart)))
	if p.Span != nil {
		p.Span.Advance(telemetry.StageLink, n.engine.Now())
	}
	n.buffers[d.buf].Pop()
	n.bufUsed[d.buf] -= p.WireBytes
	n.bufferUsed -= p.WireBytes
	n.bufferGa.Set(int64(n.bufferUsed))
	n.pumping = false
	d.rootComplexChain()
	n.pump()
}

// rootComplexChain performs the per-packet work downstream of the link:
// descriptor fetch, payload write, completion write — each preceded by an
// IOMMU translation — plus the root complex's fixed pipeline latency.
// Credits are released only at the end (step 6 of the paper's datapath).
func (d *rxDMA) rootComplexChain() {
	n := d.n
	d.payloadAddr, d.descAddr, d.complAddr = n.planner.PlanRx(d.p.Queue, d.p.PayloadBytes)
	d.misses = 0
	d.xlateNs, d.memNs = 0, 0
	d.stageStart = n.engine.Now()
	d.stage = 0
	d.translate()
}

// stageTarget returns the address and size of the current chain stage.
func (d *rxDMA) stageTarget() (uint64, int) {
	switch d.stage {
	case 0:
		return d.descAddr, d.n.cfg.DescriptorBytes
	case 1:
		return d.payloadAddr, d.p.PayloadBytes
	default:
		return d.complAddr, d.n.cfg.CompletionBytes
	}
}

// lap folds the time since the previous stage boundary into acc.
func (d *rxDMA) lap(acc *float64) {
	now := d.n.engine.Now()
	*acc += float64(now.Sub(d.stageStart))
	d.stageStart = now
}

func (d *rxDMA) translate() {
	addr, bytes := d.stageTarget()
	d.n.mmu.Translate(addr, bytes, d.translatedFn)
}

// translated folds one translation into the per-stage histograms and —
// for sampled packets — records a span stage with its miss/walk counts,
// then issues the stage's memory access (a read for the descriptor,
// writes for payload and completion), noting for sampled packets the
// load factor and FIFO backlog seen at issue time.
func (d *rxDMA) translated(r iommu.TranslationResult) {
	n, span := d.n, d.p.Span
	n.countFault(r)
	d.misses += r.Misses
	d.lap(&d.xlateNs)
	if span != nil {
		span.Advance(telemetry.StageTranslate, n.engine.Now(),
			telemetry.Attr{Key: "misses", Value: float64(r.Misses)},
			telemetry.Attr{Key: "walk_reads", Value: float64(r.WalkAccesses)},
			telemetry.Attr{Key: "pages", Value: float64(r.Pages)})
		d.lf = n.memory.LoadFactor()
		d.qd = float64(n.memory.QueueDelay())
	}
	_, bytes := d.stageTarget()
	if d.stage == 0 {
		n.memory.Read(bytes, d.memDoneFn)
	} else {
		n.memory.Write(bytes, d.memDoneFn)
	}
}

// memDone closes a stage's memory access and moves to the next stage,
// or — after the completion write — into the root-complex pipeline.
func (d *rxDMA) memDone() {
	n, span := d.n, d.p.Span
	d.lap(&d.memNs)
	if span != nil {
		_, bytes := d.stageTarget()
		span.Advance(telemetry.StageMemory, n.engine.Now(),
			telemetry.Attr{Key: "load_factor", Value: d.lf},
			telemetry.Attr{Key: "queue_wait_ns", Value: d.qd},
			telemetry.Attr{Key: "bytes", Value: float64(bytes)})
	}
	if d.stage < 2 {
		d.stage++
		d.translate()
		return
	}
	n.stageXlate.Observe(d.xlateNs)
	n.stageMem.Observe(d.memNs)
	d.rcStart = n.engine.Now()
	n.engine.After(n.link.Config().RootComplexLatency, d.deliverFn)
}

// deliver returns the credits and hands the packet to host software.
// The record is back on the free list before the delivery callback runs.
func (d *rxDMA) deliver() {
	n, p := d.n, d.p
	n.stageRC.Observe(float64(n.engine.Now().Sub(d.rcStart)))
	n.link.ReleaseCredits(d.creditBytes)
	n.missesHist.Observe(float64(d.misses))
	n.dmaLatency.Observe(float64(n.engine.Now().Sub(d.dmaStart)))
	p.Delivered = n.engine.Now()
	p.EchoHostDelay = p.Delivered.Sub(p.NICArrival)
	if p.Span != nil {
		p.Span.Advance(telemetry.StageRootComplex, p.Delivered,
			telemetry.Attr{Key: "credit_hold_ns", Value: float64(p.Delivered.Sub(d.dmaStart))},
			telemetry.Attr{Key: "iotlb_misses", Value: float64(d.misses)})
	}
	n.rxPayload.Add(uint64(p.PayloadBytes))
	n.hostDelay.Observe(float64(p.EchoHostDelay))
	d.p = nil
	n.freeRx = append(n.freeRx, d)
	n.deliver(p)
}

func (n *NIC) countFault(r iommu.TranslationResult) {
	if r.Fault != nil {
		// Loose-mode registration makes faults impossible in the
		// experiments; a fault here is a wiring bug, so fail loudly.
		panic(r.Fault)
	}
}

// Transmit sends an outgoing packet (ACKs in the receive-side workload).
// The TX path fetches the packet from host memory — translating through
// the IOMMU when TxTranslation is set, which is how ACK traffic competes
// for the same IOTLB — and serializes it on the TX side of the link.
// onWire is invoked when the packet has left the NIC; it is held until
// then, so hot-path callers pass a func value bound once.
func (n *NIC) Transmit(p *pkt.Packet, onWire func(*pkt.Packet)) {
	descAddr, addr := n.planner.PlanTx(p.Queue, p.WireBytes)
	t := n.newTxDMA(p, onWire)
	if n.cfg.TxTranslation {
		// TX fetches its descriptor and the packet buffer, each through
		// the IOMMU — the ACK-side translations of the paper's footnote 3.
		t.bufAddr = addr
		n.mmu.Translate(descAddr, n.cfg.DescriptorBytes, t.translatedFn)
	} else {
		t.fetch()
	}
}

// txDMA is the state of one outgoing packet: descriptor and buffer
// translations (stage 0 and 1), the payload fetch, then serialization.
// Like rxDMA, its steps are func values bound once per record.
type txDMA struct {
	n       *NIC
	p       *pkt.Packet
	onWire  func(*pkt.Packet)
	bufAddr uint64
	stage   int

	translatedFn      func(iommu.TranslationResult)
	fetchedFn, sentFn func()
}

func (n *NIC) newTxDMA(p *pkt.Packet, onWire func(*pkt.Packet)) *txDMA {
	var t *txDMA
	if k := len(n.freeTx); k > 0 {
		t = n.freeTx[k-1]
		n.freeTx = n.freeTx[:k-1]
	} else {
		t = &txDMA{n: n}
		t.translatedFn = t.translated
		t.fetchedFn = t.fetched
		t.sentFn = t.sent
	}
	t.p, t.onWire, t.stage = p, onWire, 0
	return t
}

func (t *txDMA) translated(r iommu.TranslationResult) {
	t.n.countFault(r)
	if t.stage == 0 {
		t.stage = 1
		t.n.mmu.Translate(t.bufAddr, t.p.WireBytes, t.translatedFn)
		return
	}
	t.fetch()
}

func (t *txDMA) fetch() { t.n.memory.Read(t.p.WireBytes, t.fetchedFn) }

// fetched serializes the packet on the NIC's egress (same raw rate).
func (t *txDMA) fetched() {
	n := t.n
	rate := n.link.Config().RawBandwidth()
	start := n.txBusyUntil
	if now := n.engine.Now(); start < now {
		start = now
	}
	finish := start.Add(rate.TransmitTime(t.p.WireBytes))
	n.txBusyUntil = finish
	n.engine.At(finish, t.sentFn)
}

func (t *txDMA) sent() {
	n, p, onWire := t.n, t.p, t.onWire
	t.p, t.onWire = nil, nil
	n.freeTx = append(n.freeTx, t)
	n.txPackets.Inc()
	onWire(p)
}

// ReplenishDescriptors returns count descriptors to a queue's ring; the
// receive path calls this as host software consumes packets.
func (n *NIC) ReplenishDescriptors(queue, count int) {
	if queue < 0 || queue >= n.cfg.Queues || count < 0 {
		panic("nic: bad descriptor replenish")
	}
	n.descriptors[queue] += count
	if n.descriptors[queue] > n.cfg.RingSize {
		n.descriptors[queue] = n.cfg.RingSize
	}
	if n.stalled {
		n.stalled = false
		n.pump()
	}
}

// SetPool installs the run's packet free list; the NIC releases packets
// it tail-drops (the only point in the Rx datapath where a packet dies
// inside the NIC — delivered packets are released downstream, after the
// application consumes them). Nil disables releasing.
func (n *NIC) SetPool(pool *pkt.Pool) { n.pool = pool }

// SetTap installs a capture hook invoked for every arriving packet
// (including ones that will be dropped), before admission. Pass nil to
// remove it.
func (n *NIC) SetTap(tap func(*pkt.Packet)) { n.tap = tap }

// SetTelemetry installs the span tracer (head-based sampling at
// admission) and the drop-attribution ledger (consulted on every
// tail-drop). Either may be nil to disable that half; install before
// traffic starts so sampling decisions stay aligned with packet order.
func (n *NIC) SetTelemetry(tr *telemetry.Tracer, led *telemetry.DropLedger) {
	n.tracer = tr
	n.ledger = led
}

// DropsByFlow returns a copy of the per-flow drop counts — the paper
// uses drop rate as a proxy for isolation violations precisely because
// the shared input buffer spreads drops across every flow.
func (n *NIC) DropsByFlow() map[uint32]uint64 {
	out := make(map[uint32]uint64, len(n.dropsByFlow))
	for f, c := range n.dropsByFlow {
		out[f] = c
	}
	return out
}

// BufferUsed returns the current input-buffer occupancy in bytes.
func (n *NIC) BufferUsed() int { return n.bufferUsed }

// WarmState is the NIC's contribution to a steady-state checkpoint.
// Buffered packets are live pkt.Packet objects and cannot be fabricated
// into a fresh run, so occupancy is record-only — it documents how full
// the donor's buffer ran (useful for checkpoint provenance) and
// re-establishes itself within a few RTTs of the warm guard window. The
// round-robin service cursor is the one piece that is restored.
type WarmState struct {
	BufferBytes int `json:"buffer_bytes"`
	RRNext      int `json:"rr_next"`
}

// WarmState captures the NIC's datapath occupancy for a checkpoint.
func (n *NIC) WarmState() WarmState {
	return WarmState{BufferBytes: n.bufferUsed, RRNext: n.rrNext}
}

// Prime restores the restorable part of a donor WarmState (the
// round-robin cursor) before the warm-started run begins.
func (n *NIC) Prime(ws WarmState) {
	if len(n.buffers) > 0 && ws.RRNext >= 0 {
		n.rrNext = ws.RRNext % len(n.buffers)
	}
}

// Drops returns the cumulative tail-drop count — Stats().Drops without
// assembling the full snapshot, for callers (the observatory sampler)
// that poll it every few sim-microseconds.
func (n *NIC) Drops() uint64 { return n.drops.Value() }

// Stats is a snapshot of NIC activity.
type Stats struct {
	RxPackets        uint64
	RxBytes          uint64
	RxPayloadBytes   uint64
	Drops            uint64
	DropBytes        uint64
	DescriptorStalls uint64
	TxPackets        uint64
}

// Stats returns current counters.
func (n *NIC) Stats() Stats {
	return Stats{
		RxPackets:        n.rxPackets.Value(),
		RxBytes:          n.rxBytes.Value(),
		RxPayloadBytes:   n.rxPayload.Value(),
		Drops:            n.drops.Value(),
		DropBytes:        n.dropBytes.Value(),
		DescriptorStalls: n.descStalls.Value(),
		TxPackets:        n.txPackets.Value(),
	}
}
