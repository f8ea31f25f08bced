package transport

import (
	"fmt"
	"testing"
	"testing/quick"

	"hic/internal/metrics"
	"hic/internal/pkt"
	"hic/internal/sim"
)

// fixedCC is a local constant-window controller for transport tests.
type fixedCC struct {
	cwnd   float64
	acks   int
	losses int
}

func (f *fixedCC) OnAck(AckInfo)   { f.acks++ }
func (f *fixedCC) OnLoss(sim.Time) { f.losses++ }
func (f *fixedCC) Cwnd() float64   { return f.cwnd }
func (f *fixedCC) Name() string    { return "test-fixed" }

// wire is a loopback test fabric with configurable delay and loss.
type wire struct {
	engine   *sim.Engine
	delay    sim.Duration
	dropSeqs map[uint64]bool // data seqs to drop once
	sent     []*pkt.Packet
	recv     *Receiver
	conn     *Conn
}

func newWire(t *testing.T, cfg Config, cc CongestionControl) *wire {
	t.Helper()
	w := &wire{engine: sim.NewEngine(1), delay: 10 * sim.Microsecond, dropSeqs: map[uint64]bool{}}
	reg := metrics.NewRegistry()
	var err error
	w.recv, err = NewReceiver(w.engine, reg, cfg, func(ack *pkt.Packet) {
		w.engine.After(w.delay, func() { w.conn.OnAck(ack) })
	})
	if err != nil {
		t.Fatal(err)
	}
	w.conn, err = NewConn(w.engine, reg, cfg, NewRetxClock(w.engine, cfg.RetxScan), cc, 1, 0, 0, func(sender int, p *pkt.Packet) {
		w.sent = append(w.sent, p)
		if w.dropSeqs[p.Seq] {
			delete(w.dropSeqs, p.Seq)
			return // lost on the wire
		}
		w.engine.After(w.delay, func() {
			p.NICArrival = w.engine.Now()
			p.Delivered = w.engine.Now()
			p.EchoHostDelay = 2 * sim.Microsecond
			p.EchoFabric = w.delay
			w.recv.Deliver(p)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.MTU = 0 },
		func(c *Config) { c.ReadSize = 100 },
		func(c *Config) { c.RTOMin = 0 },
		func(c *Config) { c.RetxScan = 0 },
		func(c *Config) { c.RTOSRTTFactor = 0.5 },
		func(c *Config) { c.MaxInflightPackets = 0 },
		func(c *Config) { c.AppRateLimit = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		e := sim.NewEngine(1)
		clock := NewRetxClock(e, DefaultConfig().RetxScan)
		if _, err := NewConn(e, metrics.NewRegistry(), cfg, clock, &fixedCC{cwnd: 1}, 1, 0, 0,
			func(int, *pkt.Packet) {}); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
		if _, err := NewReceiver(e, metrics.NewRegistry(), cfg, func(*pkt.Packet) {}); err == nil {
			t.Errorf("case %d: receiver accepted invalid config", i)
		}
	}
}

func TestWindowLimitsInflight(t *testing.T) {
	cc := &fixedCC{cwnd: 4}
	w := newWire(t, DefaultConfig(), cc)
	w.conn.Start()
	if got := w.conn.InflightPackets(); got != 4 {
		t.Fatalf("inflight = %d, want cwnd=4", got)
	}
	w.engine.Run(w.engine.Now().Add(sim.Millisecond))
	// Steady state: acks release slots, new sends fill them.
	if got := w.conn.InflightPackets(); got != 4 {
		t.Errorf("steady inflight = %d, want 4", got)
	}
	if cc.acks == 0 {
		t.Error("no acks delivered to CC")
	}
}

func TestSubUnityPacing(t *testing.T) {
	cc := &fixedCC{cwnd: 0.5}
	w := newWire(t, DefaultConfig(), cc)
	w.conn.Start()
	w.engine.Run(w.engine.Now().Add(sim.Millisecond))
	// cwnd 0.5 with srtt converging to ~20µs: roughly one packet per
	// 2·srtt. In 1ms that is well under the back-to-back count.
	sent := len(w.sent)
	if sent == 0 {
		t.Fatal("no packets sent at sub-1 cwnd")
	}
	if sent > 40 {
		t.Errorf("sent %d packets at cwnd=0.5; pacing is not limiting", sent)
	}
	if w.conn.InflightPackets() > 1 {
		t.Errorf("inflight %d > 1 at sub-1 cwnd", w.conn.InflightPackets())
	}
}

func TestAppRateLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AppRateLimit = sim.Gbps(1) // ≈ 30.5 packets/ms at 4KB
	w := newWire(t, cfg, &fixedCC{cwnd: 64})
	w.conn.Start()
	w.engine.Run(w.engine.Now().Add(10 * sim.Millisecond))
	rate := float64(len(w.sent)*4096*8) / 0.010 / 1e9
	if rate > 1.1 || rate < 0.8 {
		t.Errorf("app-limited rate = %.2f Gbps, want ≈1", rate)
	}
}

func TestRetransmitOnTimeoutAndDedup(t *testing.T) {
	cc := &fixedCC{cwnd: 2}
	w := newWire(t, DefaultConfig(), cc)
	w.dropSeqs[1] = true
	w.conn.Start()
	w.engine.Run(w.engine.Now().Add(5 * sim.Millisecond))
	st := w.conn.Stats()
	if st.Retransmits == 0 {
		t.Fatal("lost packet never retransmitted")
	}
	if cc.losses == 0 {
		t.Error("loss not reported to CC")
	}
	// All distinct payloads delivered exactly once.
	if w.recv.DuplicatePackets() > st.Retransmits {
		t.Errorf("duplicates %d exceed retransmits %d", w.recv.DuplicatePackets(), st.Retransmits)
	}
	if w.recv.GoodputBytes() == 0 {
		t.Fatal("no goodput")
	}
	// Goodput counts distinct sequences only.
	distinct := uint64(len(w.sent)) - st.Retransmits
	if w.recv.GoodputBytes() > distinct*4096 {
		t.Errorf("goodput %d exceeds distinct payload %d", w.recv.GoodputBytes(), distinct*4096)
	}
}

func TestFastRetransmitBeatsRTO(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RTOMin = 50 * sim.Millisecond // RTO effectively disabled
	cc := &fixedCC{cwnd: 8}
	w := newWire(t, cfg, cc)
	w.dropSeqs[2] = true
	w.conn.Start()
	w.engine.Run(w.engine.Now().Add(2 * sim.Millisecond))
	if w.conn.Stats().Retransmits == 0 {
		t.Fatal("fast retransmit did not fire (RTO disabled)")
	}
	if cc.losses == 0 {
		t.Error("fast-retransmit loss not reported to CC")
	}
}

func TestKarnsRuleSkipsRetransmittedRTT(t *testing.T) {
	cfg := DefaultConfig()
	cc := &fixedCC{cwnd: 1}
	w := newWire(t, cfg, cc)
	w.dropSeqs[0] = true // first packet lost: its ack sample must not poison srtt
	w.conn.Start()
	w.engine.Run(w.engine.Now().Add(5 * sim.Millisecond))
	// srtt should reflect the ~22µs loop, not the ~RTO-long first sample.
	if w.conn.SRTT() > 100*sim.Microsecond {
		t.Errorf("srtt = %v, polluted by retransmitted sample", w.conn.SRTT())
	}
}

func TestReadAccounting(t *testing.T) {
	w := newWire(t, DefaultConfig(), &fixedCC{cwnd: 8})
	w.conn.Start()
	w.engine.Run(w.engine.Now().Add(2 * sim.Millisecond))
	reads := w.recv.CompletedReads()
	goodput := w.recv.GoodputBytes()
	if reads == 0 {
		t.Fatal("no reads completed")
	}
	per := uint64(DefaultConfig().ReadSize)
	if reads != goodput/per {
		t.Errorf("reads = %d, want goodput/16KB = %d", reads, goodput/per)
	}
}

func TestSetActivePausesAndResumes(t *testing.T) {
	w := newWire(t, DefaultConfig(), &fixedCC{cwnd: 4})
	w.conn.Start()
	w.engine.Run(w.engine.Now().Add(sim.Millisecond))
	w.conn.SetActive(false)
	w.engine.Run(w.engine.Now().Add(sim.Millisecond))
	atPause := len(w.sent)
	w.engine.Run(w.engine.Now().Add(2 * sim.Millisecond))
	if len(w.sent) > atPause {
		t.Errorf("sent %d packets while inactive", len(w.sent)-atPause)
	}
	w.conn.SetActive(true)
	w.engine.Run(w.engine.Now().Add(sim.Millisecond))
	if len(w.sent) == atPause {
		t.Error("no packets after reactivation")
	}
}

func TestReceiverRejectsNonData(t *testing.T) {
	e := sim.NewEngine(1)
	r, err := NewReceiver(e, metrics.NewRegistry(), DefaultConfig(), func(*pkt.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("non-data packet did not panic")
		}
	}()
	r.Deliver(&pkt.Packet{Kind: pkt.Ack})
}

// Property: the sequence window reports a duplicate exactly when a
// sequence repeats within the window span.
func TestSeqWindowProperty(t *testing.T) {
	f := func(seqs []uint16) bool {
		w := newSeqWindow()
		seen := map[uint64]bool{}
		for _, s := range seqs {
			seq := uint64(s)
			dup := w.observe(seq)
			if dup != seen[seq] {
				return false
			}
			seen[seq] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSeqWindowAncientSequenceIsDuplicate(t *testing.T) {
	w := newSeqWindow()
	if w.observe(windowSpan * 3) {
		t.Fatal("fresh sequence flagged as duplicate")
	}
	if !w.observe(1) {
		t.Error("ancient sequence (outside the window) must be treated as duplicate")
	}
}

func TestSeqWindowClearsOnAdvance(t *testing.T) {
	w := newSeqWindow()
	w.observe(5)
	// Advance far enough that seq 5's slot is recycled.
	w.observe(5 + windowSpan)
	if !w.observe(5) {
		t.Error("recycled old sequence must read as duplicate (conservative)")
	}
	// The slot for (5 + windowSpan) itself must still be set.
	if !w.observe(5 + windowSpan) {
		t.Error("recent sequence lost")
	}
}

func BenchmarkConnSteadyState(b *testing.B) {
	e := sim.NewEngine(1)
	reg := metrics.NewRegistry()
	var conn *Conn
	recv, err := NewReceiver(e, reg, DefaultConfig(), func(ack *pkt.Packet) {
		e.After(5*sim.Microsecond, func() { conn.OnAck(ack) })
	})
	if err != nil {
		b.Fatal(err)
	}
	conn, err = NewConn(e, reg, DefaultConfig(), NewRetxClock(e, DefaultConfig().RetxScan), &fixedCC{cwnd: 16}, 1, 0, 0,
		func(sender int, p *pkt.Packet) {
			e.After(5*sim.Microsecond, func() {
				p.EchoHostDelay = sim.Microsecond
				recv.Deliver(p)
			})
		})
	if err != nil {
		b.Fatal(err)
	}
	conn.Start()
	b.ReportAllocs()
	b.ResetTimer()
	target := uint64(b.N)
	for recv.GoodputBytes()/4096 < target {
		e.Run(e.Now().Add(sim.Millisecond))
	}
}

// TestRetxClockScansInCreationOrder: two connections on one scan clock
// drain and refill in the reverse of their creation order, then time
// out on the same tick. Their retransmissions still leave in creation
// order, as they did when each connection had its own ticker.
func TestRetxClockScansInCreationOrder(t *testing.T) {
	cfg := DefaultConfig()
	e := sim.NewEngine(1)
	clock := NewRetxClock(e, cfg.RetxScan)
	var emitted []*pkt.Packet
	var emittedAt []sim.Time
	conns := make([]*Conn, 2)
	for i := range conns {
		c, err := NewConn(e, metrics.NewRegistry(), cfg, clock, &fixedCC{cwnd: 2}, uint32(i), i, 0,
			func(_ int, p *pkt.Packet) {
				emitted = append(emitted, p)
				emittedAt = append(emittedAt, e.Now())
			})
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	first, second := conns[0], conns[1]

	// Fill both windows, pause both, and drain the second first.
	first.Start()
	second.Start()
	first.SetActive(false)
	second.SetActive(false)
	for _, c := range []*Conn{second, first} {
		for _, p := range emitted {
			if p.Flow == c.Flow() {
				c.OnAck(pkt.NewAck(0, p))
			}
		}
		if c.InflightPackets() != 0 {
			t.Fatalf("flow %d did not drain", c.Flow())
		}
	}
	e.Run(e.Now().Add(3*cfg.RetxScan + 7*sim.Microsecond))

	// Refill the second first; nothing is acked, so both time out
	// together at the first tick past one RTO.
	mark := len(emitted)
	second.SetActive(true)
	first.SetActive(true)
	e.Run(e.Now().Add(cfg.RTOMin + cfg.RetxScan))
	var got []string
	for i, p := range emitted[mark:] {
		got = append(got, fmt.Sprintf("%d:%d@%v", p.Flow, p.Seq, emittedAt[mark+i]))
	}
	refill := emittedAt[mark]
	tick := (refill/sim.Time(cfg.RetxScan) + 1) * sim.Time(cfg.RetxScan)
	for tick.Sub(refill) < cfg.RTOMin {
		tick = tick.Add(cfg.RetxScan)
	}
	want := []string{
		fmt.Sprintf("1:2@%v", refill), fmt.Sprintf("1:3@%v", refill),
		fmt.Sprintf("0:2@%v", refill), fmt.Sprintf("0:3@%v", refill),
		fmt.Sprintf("0:2@%v", tick), fmt.Sprintf("0:3@%v", tick),
		fmt.Sprintf("1:2@%v", tick), fmt.Sprintf("1:3@%v", tick),
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("emissions after refill:\n got %v\nwant %v", got, want)
	}
}

// TestNewConnRejectsForeignClock: a connection must tick at its own
// RetxScan, so a clock of another period is refused.
func TestNewConnRejectsForeignClock(t *testing.T) {
	cfg := DefaultConfig()
	e := sim.NewEngine(1)
	clock := NewRetxClock(e, 2*cfg.RetxScan)
	if _, err := NewConn(e, metrics.NewRegistry(), cfg, clock, &fixedCC{cwnd: 1}, 1, 0, 0,
		func(int, *pkt.Packet) {}); err == nil {
		t.Error("connection accepted a scan clock of another period")
	}
	if _, err := NewConn(e, metrics.NewRegistry(), cfg, nil, &fixedCC{cwnd: 1}, 1, 0, 0,
		func(int, *pkt.Packet) {}); err == nil {
		t.Error("connection accepted no scan clock")
	}
}
