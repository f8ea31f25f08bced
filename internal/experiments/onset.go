package experiments

import (
	"fmt"

	"hic/internal/core"
	"hic/internal/sim"
)

// ExtOnset examines footnote 5: can a lower host-delay target substitute
// for fixing host congestion? Three answers emerge. For steady load, yes
// at a small throughput cost (rows 1–2). For bursty load the low target
// over-reacts — every onset restarts from a slashed window and
// throughput collapses (rows 3–4). And with TCP-like fixed windows (the
// footnote's premise: each sender holding BDP-scale windows), the
// synchronized onset lands the fleet's in-flight inside one RTT and
// overflows the 1 MB buffer no matter the target (row 5) — Swift's
// sub-1-cwnd pacing is what protects rows 3–4 from the same fate.
func ExtOnset(o Options) (*Table, error) {
	type scenario struct {
		name   string
		burst  bool
		fixed  float64 // > 0: TCP-like fixed window per connection
		target sim.Duration
	}
	// The bursty scenarios run against 12 antagonist cores: the NIC
	// drains at ≈55 Gbps, so each synchronized onset wave (the fleet's
	// in-flight arriving at line rate) lands ≈1 MB into the buffer
	// faster than any ack can come back.
	scs := []scenario{
		{"steady, 100µs target", false, 0, 100 * sim.Microsecond},
		{"steady, 25µs target", false, 0, 25 * sim.Microsecond},
		{"bursty+antag, 100µs target", true, 0, 100 * sim.Microsecond},
		{"bursty+antag, 25µs target", true, 0, 25 * sim.Microsecond},
		{"bursty+antag, fixed BDP windows (footnote 5)", true, 8, 0},
	}
	if o.Quick {
		scs = []scenario{scs[1], scs[4]}
	}
	const threads = 12
	t := &Table{
		ID:    "ext-onset",
		Title: "Footnote 5: burst onsets, windows, and the delay target (12 cores)",
		Columns: []string{"scenario", "gbps", "drop_pct", "hostdelay_p99_us",
			"retransmits"},
	}
	for _, sc := range scs {
		p := o.params(threads)
		if sc.target > 0 {
			p.HostTarget = sc.target
		}
		if sc.fixed > 0 {
			p.CC = core.CCFixed
			p.FixedCwnd = sc.fixed
		}
		if sc.burst {
			p.BurstDuty = 0.25
			p.BurstPeriod = sim.Millisecond
			p.AntagonistCores = 12
		}
		res, err := core.RunOn(p, nil)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			sc.name, f1(res.AppThroughputGbps), f2(res.DropRatePct),
			f1(float64(res.HostDelayP99) / 1000), fmt.Sprint(res.Retransmits),
		})
	}
	return t, nil
}
