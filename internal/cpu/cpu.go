// Package cpu models the receiver cores that run the network stack: each
// Rx queue is pinned to one core (as in the paper's setup, one receiver
// thread per dedicated core in the NIC-local NUMA node), packets queue
// per core and are processed at a calibrated per-packet + per-byte cost —
// one core sustains ≈11.5 Gbps of application throughput, giving the
// paper's linear CPU-bottlenecked region up to 8 cores ≈ 92 Gbps.
//
// Processing a packet also copies payload from stack buffers to
// application buffers; the resulting memory-read traffic is registered
// with the memory controller as fluid CPU demand (the ~3.3 GB/s read
// bandwidth the paper measures at full throughput).
package cpu

import (
	"fmt"

	"hic/internal/mem"
	"hic/internal/metrics"
	"hic/internal/pkt"
	"hic/internal/sim"
	"hic/internal/telemetry"
)

// Config sizes the receive-processing pool.
type Config struct {
	// Cores is the number of receiver threads/cores.
	Cores int
	// PerPacketCost is the fixed software cost per packet.
	PerPacketCost sim.Duration
	// PerByteCostNs is the per-payload-byte software cost in nanoseconds.
	PerByteCostNs float64
	// CopyReadFraction is how much of the payload is re-read from memory
	// when copying to application buffers (cache hits cover the rest).
	CopyReadFraction float64
	// CopyWriteFraction is payload written back to memory by the copy.
	CopyWriteFraction float64
	// DemandEpoch is the period at which copy traffic is folded into the
	// memory controller's fluid demand.
	DemandEpoch sim.Duration
}

// DefaultConfig returns the calibrated per-core cost: with a 4 KB MTU one
// core sustains ≈11.5 Gbps of application throughput.
func DefaultConfig(cores int) Config {
	return Config{
		Cores:             cores,
		PerPacketCost:     400 * sim.Nanosecond,
		PerByteCostNs:     0.6,
		CopyReadFraction:  0.28,
		CopyWriteFraction: 0,
		DemandEpoch:       20 * sim.Microsecond,
	}
}

func (c Config) validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("cpu: Cores must be positive")
	}
	if c.PerPacketCost < 0 || c.PerByteCostNs < 0 {
		return fmt.Errorf("cpu: negative processing cost")
	}
	if c.CopyReadFraction < 0 || c.CopyWriteFraction < 0 {
		return fmt.Errorf("cpu: negative copy fraction")
	}
	if c.DemandEpoch <= 0 {
		return fmt.Errorf("cpu: DemandEpoch must be positive")
	}
	return nil
}

// Pool is the set of receiver cores.
type Pool struct {
	engine *sim.Engine
	memory *mem.Controller
	cfg    Config
	done   func(*pkt.Packet)

	queues []sim.FIFO[*pkt.Packet]
	cores  []*coreRun // per-core in-service state; nil packet = idle
	active int        // cores currently allocated to packet processing

	epochPayload uint64 // payload bytes processed in the current epoch

	processed *metrics.Counter
	payload   *metrics.Counter
	queueGa   *metrics.Gauge
	procDelay *metrics.Histogram // ns, delivery → processing complete
}

// New constructs the pool. done is invoked when a packet has been fully
// processed (the application-visible delivery point).
func New(engine *sim.Engine, reg *metrics.Registry, memory *mem.Controller,
	cfg Config, done func(*pkt.Packet)) (*Pool, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if done == nil {
		return nil, fmt.Errorf("cpu: done callback is required")
	}
	p := &Pool{
		engine:    engine,
		memory:    memory,
		cfg:       cfg,
		done:      done,
		queues:    make([]sim.FIFO[*pkt.Packet], cfg.Cores),
		cores:     make([]*coreRun, cfg.Cores),
		active:    cfg.Cores,
		processed: reg.Counter("cpu.packets"),
		payload:   reg.Counter("cpu.payload.bytes"),
		queueGa:   reg.Gauge("cpu.queue.packets"),
		procDelay: reg.Histogram("cpu.processing.delay.ns"),
	}
	for core := range p.cores {
		r := &coreRun{pool: p, core: core}
		r.doneFn = r.done
		p.cores[core] = r
	}
	engine.Every(cfg.DemandEpoch, p.updateDemand)
	return p, nil
}

// Cores returns the number of cores in the pool.
func (p *Pool) Cores() int { return p.cfg.Cores }

// ActiveCores returns how many cores are currently allocated.
func (p *Pool) ActiveCores() int { return p.active }

// SetActiveCores reallocates processing cores at run time — the dynamic
// core-scaling remedy for host *software* congestion that §4 credits
// state-of-the-art stacks with (and contrasts against interconnect
// congestion, which more cores make worse). Queued packets on
// deactivated cores migrate to the remaining ones.
func (p *Pool) SetActiveCores(n int) {
	if n < 1 || n > p.cfg.Cores {
		panic(fmt.Sprintf("cpu: SetActiveCores(%d) outside [1,%d]", n, p.cfg.Cores))
	}
	old := p.active
	p.active = n
	if n >= old {
		// Newly activated cores pick work up on the next Enqueue; no
		// migration needed.
		return
	}
	for core := n; core < old; core++ {
		for p.queues[core].Len() > 0 {
			packet := p.queues[core].Pop()
			target := packet.Queue % p.active
			p.queues[target].Push(packet)
			p.run(target)
		}
	}
}

// PerCoreRate returns the application throughput one core sustains for
// the given payload size — the slope of the CPU-bottlenecked region.
func (p *Pool) PerCoreRate(payloadBytes int) sim.BitsPerSecond {
	cost := p.packetCost(payloadBytes)
	if cost <= 0 {
		return sim.Gbps(1e6)
	}
	return sim.BitsPerSecond(float64(payloadBytes*8) / cost.Seconds())
}

// packetCost is the software service time for one packet.
func (p *Pool) packetCost(payloadBytes int) sim.Duration {
	return p.cfg.PerPacketCost + sim.Duration(p.cfg.PerByteCostNs*float64(payloadBytes))
}

// Enqueue hands a DMA-completed packet to its core's run queue.
func (p *Pool) Enqueue(packet *pkt.Packet) {
	core := packet.Queue % p.active
	p.queues[core].Push(packet)
	p.queueGa.Add(1)
	p.run(core)
}

// coreRun is one core's in-service packet. A core processes one packet
// at a time, so each core owns exactly one record, and its completion
// step is a func value bound when the pool is built.
type coreRun struct {
	pool   *Pool
	core   int
	packet *pkt.Packet // nil while the core is idle
	start  sim.Time
	doneFn func()
}

func (p *Pool) run(core int) {
	r := p.cores[core]
	q := &p.queues[core]
	if r.packet != nil || q.Len() == 0 {
		return
	}
	packet := q.Pop()
	r.packet = packet
	p.queueGa.Add(-1)
	cost := p.packetCost(packet.PayloadBytes)
	r.start = p.engine.Now()
	if packet.Span != nil {
		packet.Span.Advance(telemetry.StageCPUQueue, r.start,
			telemetry.Attr{Key: "core", Value: float64(core)},
			telemetry.Attr{Key: "queued_behind", Value: float64(q.Len())})
	}
	p.engine.After(cost, r.doneFn)
}

// done completes the core's packet and starts its next one.
func (r *coreRun) done() {
	p, packet := r.pool, r.packet
	r.packet = nil
	p.processed.Inc()
	p.payload.Add(uint64(packet.PayloadBytes))
	p.epochPayload += uint64(packet.PayloadBytes)
	p.procDelay.Observe(float64(p.engine.Now().Sub(r.start)))
	// Host delay as the congestion control sees it: NIC arrival to
	// application-visible delivery, including this core's queue.
	packet.Delivered = p.engine.Now()
	packet.EchoHostDelay = packet.Delivered.Sub(packet.NICArrival)
	if packet.Span != nil {
		packet.Span.Advance(telemetry.StageCPUProcess, packet.Delivered)
		packet.Span.Finish(packet.Delivered)
	}
	p.done(packet)
	p.run(r.core)
}

// updateDemand folds the copy traffic of the last epoch into the memory
// controller's fluid CPU demand.
func (p *Pool) updateDemand() {
	rate := float64(p.epochPayload) / p.cfg.DemandEpoch.Seconds()
	p.epochPayload = 0
	if p.memory != nil {
		p.memory.SetCPUDemand("cpu.copy.read", rate*p.cfg.CopyReadFraction)
		p.memory.SetCPUDemand("cpu.copy.write", rate*p.cfg.CopyWriteFraction)
	}
}

// QueuedPackets returns the total packets waiting across all cores.
func (p *Pool) QueuedPackets() int {
	total := 0
	for i := range p.queues {
		total += p.queues[i].Len()
	}
	return total
}

// Processed returns the number of packets fully processed.
func (p *Pool) Processed() uint64 { return p.processed.Value() }

// PayloadBytes returns the total payload processed.
func (p *Pool) PayloadBytes() uint64 { return p.payload.Value() }
