package host

import (
	"hic/internal/nic"
	"hic/internal/pcie"
	"hic/internal/sim"
	"hic/internal/transport"
)

// Snapshot is a serializable capture of a converged testbed's slow
// state — the pieces a cold start spends the whole warmup ramp
// re-learning. A warm start builds a fresh testbed for the target
// scenario, applies the snapshot via Prime before Start, and then runs
// a short re-convergence guard window instead of the full ramp.
//
// What is restored: per-connection congestion state (window + smoothed
// RTT), the IOTLB working set, the memory controller's smoothed IO
// demand estimate, the NIC's round-robin service cursor, and the engine
// RNG stream. What is record-only: NIC buffer occupancy and PCIe credit
// occupancy — both are held by live packets and in-flight DMA records
// that cannot be fabricated into a fresh event queue; they re-establish
// within a few RTTs of the guard window. The engine state documents
// where the donor run stood (provenance and cache salting).
//
// The result of a warm-started run is approximate, never bit-identical
// to a cold run: internal/fidelity salts warm results into their own
// cache namespace and audits a deterministic fraction against cold DES,
// exactly like fluid-routing audits.
type Snapshot struct {
	Engine             sim.EngineState       `json:"engine"`
	Conns              []transport.WarmState `json:"conns"`
	IOTLB              []uint64              `json:"iotlb,omitempty"`
	MemIOOffered       float64               `json:"mem_io_offered"`
	RemoteMemIOOffered float64               `json:"remote_mem_io_offered,omitempty"`
	NIC                nic.WarmState         `json:"nic"`
	PCIe               pcie.WarmState        `json:"pcie"`
}

// Snapshot captures the testbed's slow state. Call it after Run (or
// RunAdaptive) returns, when the run is at steady state by
// construction.
func (t *Testbed) Snapshot() Snapshot {
	s := Snapshot{
		Engine:       t.Engine.State(),
		Conns:        make([]transport.WarmState, len(t.Conns)),
		IOTLB:        t.IOMMU.ResidentKeys(),
		MemIOOffered: t.Memory.IOOffered(),
		NIC:          t.NIC.WarmState(),
		PCIe:         t.Link.WarmState(),
	}
	for i, c := range t.Conns {
		s.Conns[i] = c.WarmState()
	}
	if t.RemoteMemory != nil {
		s.RemoteMemIOOffered = t.RemoteMemory.IOOffered()
	}
	return s
}

// Prime applies a donor snapshot to a freshly built, not-yet-started
// testbed. Donor and target must share a calibration signature (same
// topology: thread, sender, and queue counts), which makes the
// connection lists congruent; a shorter donor list primes a prefix,
// which is safe because unprimed connections simply start cold. Priming
// a started testbed is a no-op: live state must not be overwritten
// mid-run.
func (t *Testbed) Prime(s Snapshot) {
	if t.started {
		return
	}
	n := len(t.Conns)
	if len(s.Conns) < n {
		n = len(s.Conns)
	}
	for i := 0; i < n; i++ {
		t.Conns[i].Prime(s.Conns[i])
	}
	t.IOMMU.PrimeKeys(s.IOTLB)
	t.Memory.PrimeIOOffered(s.MemIOOffered)
	if t.RemoteMemory != nil && s.RemoteMemIOOffered > 0 {
		t.RemoteMemory.PrimeIOOffered(s.RemoteMemIOOffered)
	}
	t.NIC.Prime(s.NIC)
	t.Engine.PrimeRNG(s.Engine.RNG)
	// A primed testbed resumes mid-steady-state, so duty-cycled
	// workloads must be gated from t=0 too: the builder's periodic gate
	// first fires after one full period, leaving the cold-start
	// transient — every connection transmitting continuously — ungated.
	// A cold run spends its warmup relaxing out of that transient; a
	// warm run has only the guard window, so close the first period
	// down to its burst share and the resumed timeline is periodic from
	// the first tick.
	if t.cfg.BurstDuty > 0 && t.cfg.BurstPeriod > 0 {
		on := sim.Duration(float64(t.cfg.BurstPeriod) * t.cfg.BurstDuty)
		t.Engine.After(on, func() {
			for _, c := range t.Conns {
				c.SetActive(false)
			}
		})
	}
}
