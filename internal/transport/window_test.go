package transport

import (
	"fmt"
	"sort"
	"testing"

	"hic/internal/metrics"
	"hic/internal/pkt"
	"hic/internal/sim"
)

// refSent is the reference model's per-sequence record.
type refSent struct {
	at        sim.Time
	retx      int
	laterAcks int
}

// refConn replays the connection's loss recovery over an unordered map
// that is sorted on every scan — the representation the ordered
// in-flight window replaced. It observes the real connection's new
// sends and predicts every retransmission from its own state.
type refConn struct {
	cfg      Config
	inflight map[uint64]*refSent
	nextSeq  uint64
	srtt     sim.Duration
	retx     uint64
	losses   uint64
}

func newRefConn(cfg Config) *refConn {
	return &refConn{cfg: cfg, inflight: map[uint64]*refSent{}, srtt: 20 * sim.Microsecond}
}

func (r *refConn) sorted() []uint64 {
	seqs := make([]uint64, 0, len(r.inflight))
	for seq := range r.inflight {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

func (r *refConn) sent(seq uint64, now sim.Time) {
	r.inflight[seq] = &refSent{at: now}
	r.nextSeq = seq + 1
}

// ack returns the sequences fast-retransmitted in response.
func (r *refConn) ack(seq uint64, now sim.Time) []uint64 {
	info, ok := r.inflight[seq]
	if !ok {
		return nil
	}
	delete(r.inflight, seq)
	if info.retx == 0 {
		r.srtt = r.srtt/8*7 + now.Sub(info.at)/8
	}
	var out []uint64
	for _, s := range r.sorted() {
		if s >= seq {
			continue
		}
		o := r.inflight[s]
		o.laterAcks++
		if o.laterAcks < fastRetxDupAcks {
			continue
		}
		o.at, o.retx, o.laterAcks = now, o.retx+1, 0
		out = append(out, s)
	}
	r.retx += uint64(len(out))
	if len(out) > 0 {
		r.losses++
	}
	return out
}

// scan returns the sequences the retransmission timer resends.
func (r *refConn) scan(now sim.Time) []uint64 {
	rto := sim.Duration(float64(r.srtt) * r.cfg.RTOSRTTFactor)
	if rto < r.cfg.RTOMin {
		rto = r.cfg.RTOMin
	}
	var out []uint64
	for _, s := range r.sorted() {
		o := r.inflight[s]
		backoff := o.retx
		if backoff > 6 {
			backoff = 6
		}
		if now.Sub(o.at) < rto<<uint(backoff) {
			continue
		}
		if elapsed := now.Sub(o.at); elapsed > r.srtt {
			r.srtt = elapsed
		}
		o.at, o.retx, o.laterAcks = now, o.retx+1, 0
		out = append(out, s)
	}
	r.retx += uint64(len(out))
	if len(out) > 0 {
		r.losses++
	}
	return out
}

// TestInflightWindowMatchesSortedMap drives a connection through seeded
// random scripts of acks (in any order, duplicates included), wire
// drops and retransmission-timer ticks, and checks after every step
// that the retransmitted sequences, their order, Retransmits,
// LossEvents and InflightCount all equal the sorted-map reference.
func TestInflightWindowMatchesSortedMap(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.RTOMin = 100 * sim.Microsecond
			engine := sim.NewEngine(seed)
			rng := sim.NewRNG(seed)
			var emitted, onWire []*pkt.Packet
			conn, err := NewConn(engine, metrics.NewRegistry(), cfg, NewRetxClock(engine, cfg.RetxScan), &fixedCC{cwnd: 24}, 1, 0, 0,
				func(_ int, p *pkt.Packet) { emitted = append(emitted, p) })
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefConn(cfg)
			// settle sorts the emissions of one step into new sends and
			// retransmissions, and checks the latter against want.
			settle := func(step string, want []uint64) {
				t.Helper()
				var got []uint64
				for _, p := range emitted {
					if p.Seq == ref.nextSeq {
						ref.sent(p.Seq, engine.Now())
					} else {
						got = append(got, p.Seq)
					}
				}
				onWire = append(onWire, emitted...)
				emitted = emitted[:0]
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s at %v: retransmitted %v, reference %v", step, engine.Now(), got, want)
				}
				st := conn.Stats()
				if st.Retransmits != ref.retx || st.LossEvents != ref.losses || st.InflightCount != len(ref.inflight) {
					t.Fatalf("%s at %v: stats %+v, reference retx=%d losses=%d inflight=%d",
						step, engine.Now(), st, ref.retx, ref.losses, len(ref.inflight))
				}
			}
			conn.Start()
			settle("start", nil)
			for step := 0; step < 3000; step++ {
				switch r := rng.Uint64n(10); {
				case r < 6 && len(onWire) > 0:
					// Ack a random packet on the wire; acks overtake
					// one another and retransmissions duplicate them.
					i := int(rng.Uint64n(uint64(len(onWire))))
					p := onWire[i]
					onWire = append(onWire[:i], onWire[i+1:]...)
					conn.OnAck(pkt.NewAck(0, p))
					settle("ack", ref.ack(p.Seq, engine.Now()))
				case r < 8 && len(onWire) > 0:
					i := int(rng.Uint64n(uint64(len(onWire))))
					onWire = append(onWire[:i], onWire[i+1:]...)
				default:
					// Advance to the next retransmission scan.
					next := (engine.Now()/sim.Time(cfg.RetxScan) + 1) * sim.Time(cfg.RetxScan)
					engine.Run(next)
					settle("scan", ref.scan(engine.Now()))
				}
			}
			if ref.retx == 0 {
				t.Fatal("script never retransmitted; it does not exercise the window")
			}
		})
	}
}
