// Package host assembles the paper's testbed (§3 setup): one receiver
// machine — NIC, PCIe link, IOMMU, memory controller, receiver cores —
// fed by N sender machines across a fabric, running a congestion-
// controlled transport, with an optional STREAM antagonist contending the
// receiver's memory bus.
//
// The Testbed it builds is the unit every experiment sweeps: construct
// with a Config, Run for a warmup + measurement window, read Results.
package host

import (
	"fmt"
	"io"
	"math"

	"hic/internal/antagonist"
	"hic/internal/cpu"
	"hic/internal/fabric"
	"hic/internal/iommu"
	"hic/internal/mem"
	"hic/internal/metrics"
	"hic/internal/nic"
	"hic/internal/pcie"
	"hic/internal/pkt"
	"hic/internal/sender"
	"hic/internal/sim"
	"hic/internal/stats"
	"hic/internal/telemetry"
	"hic/internal/trace"
	"hic/internal/transport"
	"hic/internal/wire"
)

// CCFactory builds one congestion controller per connection.
type CCFactory func() (transport.CongestionControl, error)

// Config describes a complete testbed.
type Config struct {
	// Seed drives all randomness in the run.
	Seed uint64
	// Senders is the number of sender machines (paper: 40).
	Senders int
	// ReceiverThreads is the number of receiver threads = Rx queues =
	// dedicated cores (the x-axis of Figures 3 and 4).
	ReceiverThreads int
	// RxRegionBytes is the per-thread Rx buffer-pool registration
	// (the x-axis of Figure 5; paper baseline 12 MB).
	RxRegionBytes uint64
	// Hugepages selects 2 MB payload mappings (true, the default) or
	// 4 KB mappings (Figure 4's ablation).
	Hugepages bool
	// AntagonistCores runs the STREAM antagonist on that many cores
	// (the x-axis of Figure 6).
	AntagonistCores int
	// CPUCores caps the processing cores available to the stack
	// independently of ReceiverThreads (0 = one core per thread). With
	// fewer cores than threads the host is software-bottlenecked — the
	// congestion mode §4 says dynamic core scaling solves.
	CPUCores int
	// InitialActiveCores starts processing with fewer cores than
	// CPUCores allows (0 = all); combined with DynamicCoreScaling it
	// demonstrates the §4 software-congestion remedy.
	InitialActiveCores int
	// DynamicCoreScaling enables a controller that adds a processing
	// core whenever packet queues stay deep, and returns cores when
	// they drain.
	DynamicCoreScaling bool
	// VictimConnGbps, when > 0, creates an asymmetric workload: the
	// last queue's connections are well-behaved tenants app-limited to
	// this rate each, while every other queue saturates. Paired with
	// NIC.PerQueueBuffers it demonstrates what buffer partitioning buys:
	// the aggressors' blind-zone overload stops dropping the victim's
	// packets.
	VictimConnGbps float64
	// SenderHostModel routes each connection's packets through a full
	// sender-side TX path (bounded NIC queue, DMA from sender memory,
	// backpressure) instead of injecting directly into the fabric —
	// footnote 1's sender/receiver asymmetry made runnable.
	SenderHostModel bool
	// SenderAntagonistCores contends every sender's memory bus (only
	// meaningful with SenderHostModel).
	SenderAntagonistCores int
	// AntagonistRemoteNUMA places the STREAM antagonist on the other
	// NUMA node: its traffic hits a second memory controller, leaving
	// the NIC-local one uncontended — the §4 "coordinated allocation"
	// response of scheduling memory-hungry work away from the NIC's
	// node.
	AntagonistRemoteNUMA bool
	// BurstDuty, when in (0,1), makes the workload bursty: all
	// connections are active for BurstDuty of each BurstPeriod and idle
	// for the rest. Average link utilization then sits near
	// BurstDuty × achieved rate while drops concentrate at burst onsets.
	BurstDuty   float64
	BurstPeriod sim.Duration

	IOMMU      iommu.Config
	NIC        nic.Config
	PCIe       pcie.Config
	Memory     mem.Config
	CPU        cpu.Config
	Fabric     fabric.Config
	Transport  transport.Config
	Antagonist antagonist.Config

	// CC builds the congestion controller for each connection.
	CC CCFactory
	// InitialCwnd seeds each connection's window.
	InitialCwnd float64
}

// DefaultConfig returns the paper's baseline setup for the given receiver
// thread count with the IOMMU enabled: 40 senders, 16 KB reads over 4 KB
// MTU, 12 MB hugepage-backed Rx regions per thread, Swift-like targets.
// The CC field must still be set by the caller (swift / dctcp / fixed).
func DefaultConfig(threads int) Config {
	return Config{
		Seed:            1,
		Senders:         40,
		ReceiverThreads: threads,
		RxRegionBytes:   12 << 20,
		Hugepages:       true,
		IOMMU:           iommu.DefaultConfig(),
		NIC:             nic.DefaultConfig(threads),
		PCIe:            pcie.DefaultConfig(),
		Memory:          mem.DefaultConfig(),
		CPU:             cpu.DefaultConfig(threads),
		Fabric:          fabric.DefaultConfig(),
		Transport:       transport.DefaultConfig(),
		Antagonist:      antagonist.DefaultConfig(),
		InitialCwnd:     1,
	}
}

func (c Config) validate() error {
	if c.Senders <= 0 {
		return fmt.Errorf("host: Senders must be positive")
	}
	if c.Senders >= 1<<16 {
		return fmt.Errorf("host: Senders must fit in 16 bits")
	}
	if c.ReceiverThreads <= 0 || c.ReceiverThreads >= 1<<16 {
		return fmt.Errorf("host: ReceiverThreads outside [1, 65535]")
	}
	if c.RxRegionBytes == 0 {
		return fmt.Errorf("host: RxRegionBytes must be positive")
	}
	if c.AntagonistCores < 0 {
		return fmt.Errorf("host: negative AntagonistCores")
	}
	if c.CC == nil {
		return fmt.Errorf("host: CC factory is required")
	}
	if c.InitialCwnd <= 0 {
		return fmt.Errorf("host: InitialCwnd must be positive")
	}
	if c.BurstDuty < 0 || c.BurstDuty >= 1 {
		if c.BurstDuty != 0 {
			return fmt.Errorf("host: BurstDuty %v outside (0,1)", c.BurstDuty)
		}
	}
	if c.BurstDuty > 0 && c.BurstPeriod <= 0 {
		return fmt.Errorf("host: BurstDuty set without BurstPeriod")
	}
	return nil
}

// regionLayout is the per-thread address-space plan. Payload regions are
// large and accessed with no locality (one flow per sender per thread);
// the control structures (descriptor ring, completion ring, ACK buffers)
// are small 4 KB-mapped rings that stay hot.
type regionLayout struct {
	payloadBase uint64
	payloadSize uint64
	descBase    uint64 // Rx descriptor ring
	complBase   uint64 // completion ring
	txDescBase  uint64 // Tx descriptor ring
	ackBase     uint64 // ACK buffer pool
}

// Control-structure footprint per thread, in 4 KB pages. Together with
// the hugepage count of a 12 MB payload region (6 entries) this puts the
// per-thread IOTLB working set at 16 entries, so the registered entries
// cross the 128-entry IOTLB right above 8 threads — the knee of Figure 3.
const (
	descRingPages   = 4
	complRingPages  = 2
	txDescRingPages = 2
	ackRingPages    = 2
	pageSize        = 4096
	// threadStride spaces thread regions far apart so mappings never
	// collide regardless of region size.
	threadStride = uint64(1) << 36
)

func layoutFor(queue int, regionBytes uint64) regionLayout {
	base := uint64(queue+1) * threadStride
	ctl := base + alignUp(regionBytes, 1<<21)
	return regionLayout{
		payloadBase: base,
		payloadSize: regionBytes,
		descBase:    ctl,
		complBase:   ctl + descRingPages*pageSize,
		txDescBase:  ctl + (descRingPages+complRingPages)*pageSize,
		ackBase:     ctl + (descRingPages+complRingPages+txDescRingPages)*pageSize,
	}
}

func alignUp(v, to uint64) uint64 { return (v + to - 1) / to * to }

// planner implements nic.Planner over the thread layouts.
type planner struct {
	rng       *sim.RNG
	layouts   []regionLayout
	descIdx   []uint64
	complIdx  []uint64
	txDescIdx []uint64
	ackIdx    []uint64
}

func newPlanner(rng *sim.RNG, threads int, regionBytes uint64) *planner {
	p := &planner{
		rng:       rng,
		layouts:   make([]regionLayout, threads),
		descIdx:   make([]uint64, threads),
		complIdx:  make([]uint64, threads),
		txDescIdx: make([]uint64, threads),
		ackIdx:    make([]uint64, threads),
	}
	for q := 0; q < threads; q++ {
		p.layouts[q] = layoutFor(q, regionBytes)
	}
	return p
}

// poolSlot returns a random 64-byte slot within an n-page pool starting
// at base. The stack is a pool allocator (as in SNAP), not a dense ring:
// per-packet metadata scatters across the pool's pages, so every
// translation — not just the payload's — contends for IOTLB entries.
// With one flow per sender per thread, consecutive packets of a queue
// belong to different flows and hence different pool slots.
func (p *planner) poolSlot(base uint64, pages, need int) uint64 {
	span := uint64(pages) * pageSize
	n := (need + 63) / 64 * 64
	if uint64(n) >= span {
		return base
	}
	return base + p.rng.Uint64n((span-uint64(n))/64+1)*64
}

// PlanRx places the payload at a uniformly random 4 KB slot of the
// thread's region, offset by half a page so a 4 KB-MTU packet straddles
// two 4 KB pages (the paper's observation that disabling hugepages means
// fetching two pages per packet) while staying inside one 2 MB hugepage.
// Descriptor and completion entries come from the thread's metadata
// pools.
func (p *planner) PlanRx(queue, payloadBytes int) (uint64, uint64, uint64) {
	l := p.layouts[queue]
	slots := l.payloadSize / pageSize
	payload := l.payloadBase + p.rng.Uint64n(slots-1)*pageSize + pageSize/2
	desc := p.poolSlot(l.descBase, descRingPages, 64)
	compl := p.poolSlot(l.complBase, complRingPages, 64)
	return payload, desc, compl
}

// PlanTx draws the TX descriptor and the ACK buffer from their pools.
func (p *planner) PlanTx(queue, payloadBytes int) (uint64, uint64) {
	l := p.layouts[queue]
	return p.poolSlot(l.txDescBase, txDescRingPages, 64),
		p.poolSlot(l.ackBase, ackRingPages, payloadBytes)
}

// Testbed is a fully wired receiver + senders simulation.
type Testbed struct {
	Engine   *sim.Engine
	Registry *metrics.Registry

	Memory       *mem.Controller
	RemoteMemory *mem.Controller // second NUMA node (nil unless used)
	IOMMU        *iommu.IOMMU
	Link         *pcie.Link
	NIC          *nic.NIC
	CPU          *cpu.Pool
	Fabric       *fabric.Network
	Receiver     *transport.Receiver
	Stream       *antagonist.Stream
	Conns        []*transport.Conn
	Senders      []*sender.Host // non-nil when SenderHostModel is set

	// Pool is the run's packet free list. The testbed owns the release
	// points for packets that survive to the application: data packets
	// are released after transport delivery, acks after the owning
	// connection consumes them. The NIC and fabric release the packets
	// they drop themselves.
	Pool *pkt.Pool

	cfg     Config
	started bool
}

// EnableTrace samples the load-bearing state of the testbed every period
// into a trace.Recorder: instantaneous goodput, NIC buffer occupancy,
// switch port queue, aggregate congestion window, memory load factor and
// cumulative drops. Call before Run.
func (t *Testbed) EnableTrace(period sim.Duration) *trace.Recorder {
	rec := trace.NewRecorder()
	var prevGoodput uint64
	t.Engine.Every(period, func() {
		now := t.Engine.Now()
		goodput := t.Receiver.GoodputBytes()
		gbps := float64(goodput-prevGoodput) * 8 / period.Seconds() / 1e9
		prevGoodput = goodput
		var cwnd float64
		for _, c := range t.Conns {
			cwnd += c.CC().Cwnd()
		}
		rec.Record("goodput_gbps", now, gbps)
		rec.Record("nic_buffer_kb", now, float64(t.NIC.BufferUsed())/1024)
		rec.Record("port_queue_kb", now, float64(t.Fabric.PortQueueBytes())/1024)
		rec.Record("cwnd_sum_pkts", now, cwnd)
		rec.Record("mem_load_factor", now, t.Memory.LoadFactor())
		rec.Record("drops_total", now, float64(t.NIC.Stats().Drops))
	})
	return rec
}

// EnableSpans turns on pipeline-wide telemetry: head-based span sampling
// at the given rate (every sampled packet records per-stage enter/exit
// timestamps from NIC admission through CPU processing) and a drop-
// attribution ledger that classifies every NIC tail-drop by its root
// cause from the interconnect state at drop time. The tracer's RNG is
// forked from the engine's, so the same seed and rate always sample the
// same packets. Call before Run; the returned Run owns both halves and
// feeds the exporters in internal/telemetry.
func (t *Testbed) EnableSpans(rate float64) *telemetry.Run {
	tr := telemetry.NewTracer(t.Engine.RNG().Fork(), rate)
	led := telemetry.NewDropLedger(func() telemetry.DropContext {
		return telemetry.DropContext{
			MemLoadFactor:  t.Memory.LoadFactor(),
			IOTLBMissRate:  t.IOMMU.RecentMissRate(),
			MemQueueDelay:  t.Memory.QueueDelay(),
			CreditStallAge: t.Link.OldestWaiterAge(),
			BufferBytes:    t.NIC.BufferUsed(),
		}
	})
	t.NIC.SetTelemetry(tr, led)
	return &telemetry.Run{Tracer: tr, Drops: led}
}

// flowID packs (sender, queue) into the packet flow field.
func flowID(sender, queue int) uint32 { return uint32(sender)<<16 | uint32(queue) }

func flowSender(flow uint32) int { return int(flow >> 16) }

// Runtime carries pre-allocated simulation state for reuse across runs:
// the engine (with its event node pool), the packet pool (with its free
// list), and the metrics registry. The worker-pool arenas in
// internal/runner own one Runtime's worth of state per worker; nil
// fields mean "create fresh", so the zero Runtime reproduces New's
// historical behavior exactly.
type Runtime struct {
	Engine   *sim.Engine
	Registry *metrics.Registry
	Pool     *pkt.Pool
}

// New builds and wires a testbed with fresh per-run state.
func New(cfg Config) (*Testbed, error) {
	return NewWith(Runtime{}, cfg)
}

// NewWith builds and wires a testbed on the given runtime. A non-nil
// engine is Reset to the config's seed and a non-nil registry is
// Zeroed, so a testbed built on a dirty arena behaves bit-identically
// to one built on fresh state (the golden determinism tests prove
// this). The packet pool is used as-is: recycled packets are fully
// zeroed on reuse, so a warm free list is invisible to the simulation.
//
// One caveat of registry reuse: metric names registered by an earlier
// run on the same arena remain registered (at zero) even if this run's
// configuration never touches them. Results reads only well-known
// names, so measurements are unaffected; callers that Dump or Snapshot
// a registry for export should build on a fresh Runtime.
func NewWith(rt Runtime, cfg Config) (*Testbed, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	engine := rt.Engine
	if engine == nil {
		engine = sim.NewEngine(cfg.Seed)
	} else {
		engine.Reset(cfg.Seed)
	}
	registry := rt.Registry
	if registry == nil {
		registry = metrics.NewRegistry()
	} else {
		registry.Zero()
	}
	pool := rt.Pool
	if pool == nil {
		pool = pkt.NewPool()
	}
	t := &Testbed{
		Engine:   engine,
		Registry: registry,
		Pool:     pool,
		cfg:      cfg,
	}
	var err error
	if t.Memory, err = mem.New(t.Engine, t.Registry, cfg.Memory); err != nil {
		return nil, err
	}
	if t.IOMMU, err = iommu.New(t.Engine, t.Memory, t.Registry, cfg.IOMMU); err != nil {
		return nil, err
	}
	if t.Link, err = pcie.New(t.Engine, t.Registry, cfg.PCIe); err != nil {
		return nil, err
	}
	antagMem := t.Memory
	if cfg.AntagonistRemoteNUMA {
		// The far NUMA node has its own controller; its registry
		// metrics are namespaced by a separate registry to keep the
		// NIC-local measurements clean.
		if t.RemoteMemory, err = mem.New(t.Engine, metrics.NewRegistry(), cfg.Memory); err != nil {
			return nil, err
		}
		antagMem = t.RemoteMemory
	}
	if t.Stream, err = antagonist.New(antagMem, cfg.Antagonist); err != nil {
		return nil, err
	}

	// Register the per-thread regions with the IOMMU (loose mode: fixed
	// upfront registration, alive for the whole run).
	if cfg.IOMMU.Enabled {
		ps := iommu.Page2M
		if !cfg.Hugepages {
			ps = iommu.Page4K
		}
		for q := 0; q < cfg.ReceiverThreads; q++ {
			l := layoutFor(q, cfg.RxRegionBytes)
			if err := t.IOMMU.MapRegion(l.payloadBase, l.payloadSize, ps); err != nil {
				return nil, fmt.Errorf("host: mapping payload region: %w", err)
			}
			ctlBytes := uint64(descRingPages+complRingPages+txDescRingPages+ackRingPages) * pageSize
			if err := t.IOMMU.MapRegion(l.descBase, ctlBytes, iommu.Page4K); err != nil {
				return nil, fmt.Errorf("host: mapping control region: %w", err)
			}
		}
	}

	pl := newPlanner(t.Engine.RNG().Fork(), cfg.ReceiverThreads, cfg.RxRegionBytes)

	// Receiver transport endpoint: acks leave through the NIC TX path
	// and ride the fabric back to the owning sender. The on-wire hop is
	// bound once here, not per ack.
	ackOnWire := func(p *pkt.Packet) { t.Fabric.SendToSender(flowSender(p.Flow), p) }
	t.Receiver, err = transport.NewReceiver(t.Engine, t.Registry, cfg.Transport, func(ack *pkt.Packet) {
		t.NIC.Transmit(ack, ackOnWire)
	})
	if err != nil {
		return nil, err
	}
	t.Receiver.SetPool(t.Pool)

	// CPU pool: processing completes → transport delivery + descriptor
	// replenish (host software returning buffers to the ring). Delivery
	// is where a data packet dies: once the receiver has consumed it and
	// the descriptor is back on the ring, the testbed releases it.
	cpuCfg := cfg.CPU
	if cfg.CPUCores > 0 {
		cpuCfg.Cores = cfg.CPUCores
	}
	t.CPU, err = cpu.New(t.Engine, t.Registry, t.Memory, cpuCfg, func(p *pkt.Packet) {
		t.Receiver.Deliver(p)
		t.NIC.ReplenishDescriptors(p.Queue, 1)
		t.Pool.Release(p)
	})
	if err != nil {
		return nil, err
	}
	if cfg.InitialActiveCores > 0 {
		t.CPU.SetActiveCores(cfg.InitialActiveCores)
	}
	if cfg.DynamicCoreScaling {
		// Scheduler tick: deep sustained queues get another core; near-
		// empty queues release one.
		t.Engine.Every(100*sim.Microsecond, func() {
			depth := t.CPU.QueuedPackets()
			active := t.CPU.ActiveCores()
			switch {
			case depth > 8*active && active < t.CPU.Cores():
				t.CPU.SetActiveCores(active + 1)
			case depth < active && active > 1:
				t.CPU.SetActiveCores(active - 1)
			}
		})
	}

	t.NIC, err = nic.New(t.Engine, t.Registry, t.Link, t.IOMMU, t.Memory, pl, cfg.NIC,
		func(p *pkt.Packet) { t.CPU.Enqueue(p) })
	if err != nil {
		return nil, err
	}
	t.NIC.SetPool(t.Pool)

	t.Fabric, err = fabric.New(t.Engine, t.Registry, cfg.Senders, cfg.Fabric,
		func(p *pkt.Packet) { t.NIC.Receive(p) },
		func(sender int, p *pkt.Packet) { t.ackToConn(p) })
	if err != nil {
		return nil, err
	}
	t.Fabric.SetPool(t.Pool)

	// Optional sender-side hosts: the TX datapath with backpressure.
	emitFor := func(s int) func(int, *pkt.Packet) {
		return func(sndr int, p *pkt.Packet) { t.Fabric.SendToReceiver(sndr, p) }
	}
	if cfg.SenderHostModel {
		for s := 0; s < cfg.Senders; s++ {
			s := s
			sh, err := sender.New(t.Engine, metrics.NewRegistry(), sender.DefaultConfig(),
				func(p *pkt.Packet) { t.Fabric.SendToReceiver(s, p) })
			if err != nil {
				return nil, err
			}
			if cfg.SenderAntagonistCores > 0 {
				ant, err := antagonist.New(sh.Memory(), cfg.Antagonist)
				if err != nil {
					return nil, err
				}
				ant.SetCores(cfg.SenderAntagonistCores)
			}
			t.Senders = append(t.Senders, sh)
		}
		emitFor = func(s int) func(int, *pkt.Packet) {
			return func(_ int, p *pkt.Packet) { t.Senders[s].Send(p) }
		}
	}

	// One connection per (sender, receiver thread) pair.
	for s := 0; s < cfg.Senders; s++ {
		for q := 0; q < cfg.ReceiverThreads; q++ {
			cc, err := cfg.CC()
			if err != nil {
				return nil, fmt.Errorf("host: building CC: %w", err)
			}
			tcfg := cfg.Transport
			if cfg.VictimConnGbps > 0 && q == cfg.ReceiverThreads-1 {
				tcfg.AppRateLimit = sim.BitsPerSecond(cfg.VictimConnGbps * 1e9)
			}
			conn, err := transport.NewConn(t.Engine, t.Registry, tcfg, cc,
				flowID(s, q), s, q, emitFor(s))
			if err != nil {
				return nil, err
			}
			conn.SetPool(t.Pool)
			t.Conns = append(t.Conns, conn)
		}
	}

	t.Stream.SetCores(cfg.AntagonistCores)

	if cfg.BurstDuty > 0 {
		on := sim.Duration(float64(cfg.BurstPeriod) * cfg.BurstDuty)
		t.Engine.Every(cfg.BurstPeriod, func() {
			for _, c := range t.Conns {
				c.SetActive(true)
			}
			t.Engine.After(on, func() {
				for _, c := range t.Conns {
					c.SetActive(false)
				}
			})
		})
	}
	return t, nil
}

// connFor finds the connection owning a flow.
func (t *Testbed) ackToConn(a *pkt.Packet) {
	s := flowSender(a.Flow)
	q := int(a.Flow & 0xffff)
	idx := s*t.cfg.ReceiverThreads + q
	if idx < 0 || idx >= len(t.Conns) {
		panic(fmt.Sprintf("host: ack for unknown flow %#x", a.Flow))
	}
	t.Conns[idx].OnAck(a)
	// Ack consumption is where an ack dies; the testbed owns it here.
	t.Pool.Release(a)
}

// Start begins transmission, staggering connection starts across one
// millisecond: hundreds of connections emitting their initial windows
// simultaneously would be a synchronized incast burst that collapses
// every window to the floor before the experiment begins.
func (t *Testbed) Start() {
	rng := t.Engine.RNG().Fork()
	for _, c := range t.Conns {
		c := c
		t.Engine.After(sim.Duration(rng.Uint64n(uint64(sim.Millisecond))), c.Start)
	}
}

// EnableCapture taps the receiver NIC and writes every arriving packet
// to w in the wire capture format. The returned writer reports how many
// records were captured; write errors surface through the returned
// error channel-free API by panicking (a capture target failing mid-
// simulation is unrecoverable for the experiment).
func (t *Testbed) EnableCapture(w io.Writer) *wire.Writer {
	cw := wire.NewWriter(w)
	t.NIC.SetTap(func(p *pkt.Packet) {
		if err := cw.WritePacket(p); err != nil {
			panic(fmt.Sprintf("host: capture write failed: %v", err))
		}
	})
	return cw
}

// Results summarizes one measurement window in the units the paper plots.
type Results struct {
	Duration sim.Duration

	// AppThroughputGbps is distinct application payload delivered per
	// second — the y-axis of Figures 3–6's throughput panels.
	AppThroughputGbps float64
	// DropRatePct is host drops over packets arriving at the host.
	DropRatePct float64
	// IOTLBMissesPerPacket is IOTLB misses per delivered data packet.
	IOTLBMissesPerPacket float64
	// MemoryBandwidthGBps is total achieved memory bandwidth (Figure 6).
	MemoryBandwidthGBps float64
	// LinkUtilization is wire bytes arriving at the host over capacity.
	LinkUtilization float64

	HostDelayP50 sim.Duration
	HostDelayP99 sim.Duration
	HostDelayMax sim.Duration

	// Read latency: issue → last byte acked for 16 KB reads (the
	// application-level tail the paper's introduction motivates).
	ReadLatencyP50  sim.Duration
	ReadLatencyP99  sim.Duration
	ReadLatencyP999 sim.Duration

	// FairnessIndex is Jain's index over per-connection goodput in the
	// measurement window (1 = perfectly fair).
	FairnessIndex float64

	RxPackets   uint64
	Drops       uint64
	Retransmits uint64
	SwitchDrops uint64
	Goodput     uint64
	Reads       uint64
	DMAFaults   uint64
}

// measureBaseline captures the cumulative-counter snapshot taken at the
// start of a measurement window so harvest can compute window deltas.
type measureBaseline struct {
	memStart sim.Time
	io0      uint64
	cpu0     float64
	flow0    map[uint32]uint64
}

// beginMeasure runs the (discarded) warmup, resets the window counters,
// and snapshots the cumulative series harvest will diff against.
func (t *Testbed) beginMeasure(warmup sim.Duration) measureBaseline {
	if !t.started {
		t.Start()
		t.started = true
	}
	t.Engine.Run(t.Engine.Now().Add(warmup))
	t.Registry.ResetAll()
	return measureBaseline{
		memStart: t.Engine.Now(),
		io0:      t.Memory.IOServedBytes(),
		cpu0:     t.Memory.CPUServedBytes(),
		flow0:    t.Receiver.GoodputByFlow(),
	}
}

// Run executes warmup (discarded) then a measurement window and returns
// its Results. Calling Run again continues the same simulation with a
// fresh measurement window (pass zero warmup for back-to-back bins).
func (t *Testbed) Run(warmup, measure sim.Duration) Results {
	b := t.beginMeasure(warmup)
	t.Engine.Run(t.Engine.Now().Add(measure))
	return t.harvest(b, measure)
}

// harvest summarizes the window that began at b and lasted measure. The
// engine must already have advanced to the end of the window.
func (t *Testbed) harvest(b measureBaseline, measure sim.Duration) Results {
	memStart, io0, cpu0, flow0 := b.memStart, b.io0, b.cpu0, b.flow0

	res := Results{Duration: measure}
	sec := measure.Seconds()

	goodput := t.Receiver.GoodputBytes()
	res.Goodput = goodput
	res.AppThroughputGbps = float64(goodput) * 8 / sec / 1e9
	res.Reads = t.Receiver.CompletedReads()

	ns := t.NIC.Stats()
	res.RxPackets = ns.RxPackets
	res.Drops = ns.Drops
	arrived := ns.RxPackets + ns.Drops
	if arrived > 0 {
		res.DropRatePct = float64(ns.Drops) / float64(arrived) * 100
	}
	res.LinkUtilization = float64(ns.RxBytes+ns.DropBytes) * 8 / sec /
		float64(t.cfg.Fabric.AccessLinkRate)

	is := t.IOMMU.Stats()
	res.DMAFaults = is.Faults
	delivered := t.CPU.Processed()
	if delivered > 0 {
		res.IOTLBMissesPerPacket = float64(is.Misses) / float64(delivered)
	}

	res.MemoryBandwidthGBps = t.Memory.TotalBandwidthGBps(memStart, io0, cpu0)

	h := t.Registry.Histogram("transport.host.delay.ns")
	res.HostDelayP50 = sim.Duration(h.Quantile(0.5))
	res.HostDelayP99 = sim.Duration(h.Quantile(0.99))
	res.HostDelayMax = sim.Duration(h.Max())

	r := t.Registry.Histogram("transport.read.latency.ns")
	res.ReadLatencyP50 = sim.Duration(r.Quantile(0.5))
	res.ReadLatencyP99 = sim.Duration(r.Quantile(0.99))
	res.ReadLatencyP999 = sim.Duration(r.Quantile(0.999))

	res.Retransmits = t.Registry.Counter("transport.retx.packets").Value()
	res.SwitchDrops = t.Fabric.SwitchDrops()

	perFlow := make([]float64, 0, len(t.Conns))
	flow1 := t.Receiver.GoodputByFlow()
	for _, c := range t.Conns {
		perFlow = append(perFlow, float64(flow1[c.Flow()]-flow0[c.Flow()]))
	}
	res.FairnessIndex = stats.JainIndex(perFlow)
	return res
}

// StopRule configures the steady-state sequential stopping test used by
// RunAdaptive. The measurement window is executed in sub-windows of
// Window; after MinWindows sub-windows the run stops as soon as the
// standard error of both the per-window goodput rate and the per-window
// drop fraction falls below RelTol of their running means (with a small
// absolute floor so an all-zero drop series converges immediately).
type StopRule struct {
	// Window is the sub-window length. Zero disables early stopping.
	Window sim.Duration
	// MinWindows is the minimum number of sub-windows observed before
	// the convergence test may fire (also the warm statistics floor).
	MinWindows int
	// RelTol is the relative standard-error threshold, e.g. 0.02 stops
	// once the goodput-rate mean is known to ~2% (1 s.e.).
	RelTol float64
}

// DefaultStopRule is tuned for fleet/sweep windows of a few ms to tens
// of ms: 1 ms sub-windows, at least 3 of them, 2.5% standard error.
// Three windows is the floor at which the standard-error estimate is
// meaningful at all; the RelTol threshold, not the window count,
// carries the accuracy burden, and the audit pass verifies the result
// empirically.
func DefaultStopRule() StopRule {
	return StopRule{Window: sim.Millisecond, MinWindows: 3, RelTol: 0.025}
}

// Fit shrinks (never grows) Window so at least 2×MinWindows sub-windows
// fit the measure — without it, fleet measures shorter than
// Window×(MinWindows+1) silently disable early stopping. The result is
// a pure function of (rule, measure), so for a given scenario the
// fitted rule — and therefore the run — stays deterministic. A
// disabled rule stays disabled.
func (r StopRule) Fit(measure sim.Duration) StopRule {
	if r.Window <= 0 || r.RelTol <= 0 || r.MinWindows <= 0 || measure <= 0 {
		return r
	}
	if maxW := measure / sim.Duration(2*r.MinWindows); r.Window > maxW {
		r.Window = maxW
	}
	return r
}

// Align snaps Window to a whole number of burst periods for duty-cycled
// workloads. Sub-periodic windows sample alternating burst and idle
// phases, so their means oscillate and the convergence test never
// fires; period-aligned windows see statistically identical copies of
// the cycle, so two of them suffice for the comparison (MinWindows is
// clamped accordingly). No-op for non-bursty configs (period 0) or a
// disabled rule.
func (r StopRule) Align(period sim.Duration) StopRule {
	if r.Window <= 0 || r.RelTol <= 0 || period <= 0 {
		return r
	}
	if r.Window < period {
		r.Window = period
	} else if rem := r.Window % period; rem != 0 {
		r.Window -= rem
	}
	if r.MinWindows > 2 {
		r.MinWindows = 2
	}
	return r
}

// dropFloor is the absolute standard-error floor for the per-window
// drop fraction (drops per arrived packet): below one part in 2e4 the
// drop series is considered settled regardless of its relative spread.
const dropFloor = 5e-5

func converged(m *stats.Moments, relTol, absFloor float64) bool {
	if m.N() < 2 {
		return false
	}
	se := m.Stddev() / math.Sqrt(float64(m.N()))
	return se <= math.Max(relTol*math.Abs(m.Mean()), absFloor)
}

// warmupAdaptive advances the engine through the warmup phase, cutting
// it short once the per-window goodput rate and drop fraction reach
// steady state under the same convergence test the measurement phase
// uses. Warmup exists only to get past the transient; once the
// transient is demonstrably over, the remaining warmup carries no
// information. Returns whether the warmup was cut short.
func (t *Testbed) warmupAdaptive(warmup sim.Duration, rule StopRule) bool {
	if !t.started {
		t.Start()
		t.started = true
	}
	rule = rule.Fit(warmup)
	if t.cfg.BurstDuty > 0 {
		rule = rule.Align(t.cfg.BurstPeriod)
	}
	if rule.Window <= 0 || rule.RelTol <= 0 ||
		warmup <= rule.Window*sim.Duration(rule.MinWindows+1) {
		t.Engine.Run(t.Engine.Now().Add(warmup))
		return false
	}
	var goodRate, dropFrac stats.Moments
	var elapsed sim.Duration
	var prevGood, prevArrived, prevDrops uint64
	for elapsed < warmup {
		step := rule.Window
		if rem := warmup - elapsed; rem < step {
			step = rem
		}
		t.Engine.Run(t.Engine.Now().Add(step))
		elapsed += step

		good := t.Receiver.GoodputBytes()
		ns := t.NIC.Stats()
		arrived := ns.RxPackets + ns.Drops
		goodRate.Add(float64(good-prevGood) * 8 / step.Seconds() / 1e9)
		frac := 0.0
		if da := arrived - prevArrived; da > 0 {
			frac = float64(ns.Drops-prevDrops) / float64(da)
		}
		dropFrac.Add(frac)
		prevGood, prevArrived, prevDrops = good, arrived, ns.Drops

		if elapsed >= warmup {
			break
		}
		if int(goodRate.N()) >= rule.MinWindows &&
			converged(&goodRate, rule.RelTol, 0) &&
			converged(&dropFrac, rule.RelTol, dropFloor) {
			return true
		}
	}
	return false
}

// RunAdaptive is Run with steady-state early termination on both
// phases. The warmup is cut short as soon as the transient has
// demonstrably passed (see warmupAdaptive); the measurement window then
// executes in rule.Window sub-windows, feeding per-window goodput rate
// and drop fraction into Welford accumulators, and stops the engine as
// soon as both series converge (see StopRule). Counters in the returned
// Results are scaled from the elapsed window up to the requested
// measure so downstream consumers see the usual units; rates and
// quantiles are reported from the observed prefix unchanged. The
// boolean reports whether either phase terminated early.
//
// With a zero rule (or a window too coarse to fit MinWindows+1
// sub-windows) this is exactly Run: the engine advances through the
// same event sequence whether the horizon is reached in one call or
// several, so a non-triggering RunAdaptive is bit-identical to Run.
func (t *Testbed) RunAdaptive(warmup, measure sim.Duration, rule StopRule) (Results, bool) {
	mRule := rule
	if t.cfg.BurstDuty > 0 {
		mRule = mRule.Align(t.cfg.BurstPeriod)
	}
	if mRule.Window <= 0 || mRule.RelTol <= 0 ||
		measure <= mRule.Window*sim.Duration(mRule.MinWindows+1) {
		return t.Run(warmup, measure), false
	}
	warmCut := t.warmupAdaptive(warmup, rule)
	b := t.beginMeasure(0)
	rule = mRule

	var goodRate, dropFrac stats.Moments
	var elapsed sim.Duration
	var prevGood, prevArrived, prevDrops uint64
	stopped := false
	for elapsed < measure {
		step := rule.Window
		if rem := measure - elapsed; rem < step {
			step = rem
		}
		t.Engine.Run(t.Engine.Now().Add(step))
		elapsed += step

		good := t.Receiver.GoodputBytes()
		ns := t.NIC.Stats()
		arrived := ns.RxPackets + ns.Drops
		goodRate.Add(float64(good-prevGood) * 8 / step.Seconds() / 1e9)
		frac := 0.0
		if da := arrived - prevArrived; da > 0 {
			frac = float64(ns.Drops-prevDrops) / float64(da)
		}
		dropFrac.Add(frac)
		prevGood, prevArrived, prevDrops = good, arrived, ns.Drops

		if elapsed >= measure {
			break
		}
		if int(goodRate.N()) >= rule.MinWindows &&
			converged(&goodRate, rule.RelTol, 0) &&
			converged(&dropFrac, rule.RelTol, dropFloor) {
			stopped = true
			break
		}
	}

	res := t.harvest(b, elapsed)
	if stopped && elapsed < measure {
		res.scaleTo(measure, elapsed)
	}
	return res, stopped || warmCut
}

// scaleTo extrapolates the window's integer counters from the observed
// elapsed duration up to the requested one (rates and quantiles are
// already duration-normalized and stay as observed).
func (r *Results) scaleTo(measure, elapsed sim.Duration) {
	f := float64(measure) / float64(elapsed)
	scale := func(v uint64) uint64 { return uint64(math.Round(float64(v) * f)) }
	r.Goodput = scale(r.Goodput)
	r.RxPackets = scale(r.RxPackets)
	r.Drops = scale(r.Drops)
	r.Retransmits = scale(r.Retransmits)
	r.SwitchDrops = scale(r.SwitchDrops)
	r.Reads = scale(r.Reads)
	r.DMAFaults = scale(r.DMAFaults)
	r.Duration = measure
}
