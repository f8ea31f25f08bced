package experiments

import (
	"testing"

	"hic/internal/core"
	"hic/internal/sim"
)

func TestExtSoftwareScalingRecovers(t *testing.T) {
	tab, err := ExtSoftwareVsInterconnect(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Software-bound with 4 of 12 cores ≈ 4×11.5; with dynamic scaling
	// the controller must recover most of the ceiling.
	bound, _ := cell(t, tab, 0, "gbps")
	scaled, _ := cell(t, tab, 1, "gbps")
	if bound > 55 {
		t.Errorf("4-core software bound = %v Gbps, want ≈46", bound)
	}
	if scaled < bound+15 {
		t.Errorf("dynamic scaling did not recover: %v -> %v", bound, scaled)
	}
}

func TestExtNUMARemotePlacementRecovers(t *testing.T) {
	tab, err := ExtNUMAPlacement(quick)
	if err != nil {
		t.Fatal(err)
	}
	local, _ := cell(t, tab, 0, "gbps")
	remote, _ := cell(t, tab, 1, "gbps")
	if remote <= local {
		t.Errorf("far-node placement (%v) not better than NIC-local (%v)", remote, local)
	}
}

func TestExtFairnessDegradesUnderCongestion(t *testing.T) {
	tab, err := ExtFairness(quick)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := cell(t, tab, 0, "jain_index")
	congested, _ := cell(t, tab, 1, "jain_index")
	if clean < 0.9 {
		t.Errorf("uncongested fairness = %v, want near 1", clean)
	}
	if congested > clean {
		t.Errorf("congestion improved fairness? %v -> %v", clean, congested)
	}
}

func TestDynamicScalingEndToEnd(t *testing.T) {
	// Direct check of the controller: start at 2 of 12 cores under a
	// saturating load; active cores must grow.
	p := core.DefaultParams(12)
	p.Warmup, p.Measure = 2*sim.Millisecond, 6*sim.Millisecond
	p.CPUCores = 12
	p.InitialActiveCores = 2
	p.DynamicCoreScaling = true
	tb, err := p.BuildOn(nil)
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(p.Warmup, p.Measure)
	if got := tb.CPU.ActiveCores(); got <= 2 {
		t.Errorf("active cores = %d after saturating load, want > 2", got)
	}
}

func TestRemoteNUMALeavesLocalBusIdle(t *testing.T) {
	p := core.DefaultParams(4)
	p.Senders = 8
	p.Warmup, p.Measure = 2*sim.Millisecond, 4*sim.Millisecond
	p.AntagonistCores = 12
	p.AntagonistRemoteNUMA = true
	tb, err := p.BuildOn(nil)
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(p.Warmup, p.Measure)
	if tb.RemoteMemory == nil {
		t.Fatal("remote NUMA controller not created")
	}
	if tb.Memory.CPUOffered() > 2e9 {
		t.Errorf("NIC-local bus sees %v B/s of antagonist demand, want ≈copy traffic only",
			tb.Memory.CPUOffered())
	}
	if tb.RemoteMemory.CPUOffered() < 50e9 {
		t.Errorf("far node sees %v B/s, want the full antagonist demand", tb.RemoteMemory.CPUOffered())
	}
}

func TestExtSenderSideAsymmetry(t *testing.T) {
	o := quick
	o.Quick = false // need all three scenarios; shrink windows instead
	o.Warmup, o.Measure = 4*sim.Millisecond, 6*sim.Millisecond
	tab, err := ExtSenderSide(o)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := cell(t, tab, 0, "gbps")
	senderSide, _ := cell(t, tab, 1, "gbps")
	receiverSide, _ := cell(t, tab, 2, "gbps")
	// Sender-side contention: mild (backpressure, no loss). Receiver-
	// side: collapse.
	if senderSide < 0.8*base {
		t.Errorf("sender-side contention collapsed throughput: %v -> %v", base, senderSide)
	}
	if receiverSide >= senderSide {
		t.Errorf("receiver-side contention (%v) not worse than sender-side (%v)",
			receiverSide, senderSide)
	}
	sDrop, _ := cell(t, tab, 1, "drop_pct")
	if sDrop > 0.2 {
		t.Errorf("sender-side contention caused %v%% drops; backpressure should prevent loss", sDrop)
	}
}

func TestExtPartitionProtectsVictim(t *testing.T) {
	o := quick
	o.Warmup, o.Measure = 6*sim.Millisecond, 8*sim.Millisecond
	tab, err := ExtPartition(o)
	if err != nil {
		t.Fatal(err)
	}
	sharedVic, _ := cell(t, tab, 0, "victim_drop_pct")
	partVic, _ := cell(t, tab, 1, "victim_drop_pct")
	if sharedVic <= 0 {
		t.Skip("no blind-zone drops at quick fidelity; nothing to compare")
	}
	if partVic >= sharedVic {
		t.Errorf("partitioning did not protect the victim: %v -> %v", sharedVic, partVic)
	}
}

func TestExtBudgetDecomposition(t *testing.T) {
	tab, err := ExtBudget(quick)
	if err != nil {
		t.Fatal(err)
	}
	// 8 cores: translations nearly free (IOTLB fits). 16 cores: the
	// translate stage must dominate the growth.
	x8, _ := cell(t, tab, 0, "translate")
	x16, _ := cell(t, tab, 1, "translate")
	if x8 > 100 {
		t.Errorf("8-core translate stage = %v ns, want ≈ hit latency", x8)
	}
	if x16 < 5*x8+100 {
		t.Errorf("16-core translate stage %v not ≫ 8-core %v", x16, x8)
	}
	t8, _ := cell(t, tab, 0, "total")
	t16, _ := cell(t, tab, 1, "total")
	if t16 <= t8 {
		t.Errorf("total per-DMA latency did not grow: %v -> %v", t8, t16)
	}
}

func TestExtDDIOCopyTrafficMatters(t *testing.T) {
	tab, err := ExtDDIO(quick)
	if err != nil {
		t.Fatal(err)
	}
	// In the transition region (8 antagonists) the DDIO-off host must be
	// slower than the ideal one: its copies add DRAM demand.
	last := len(tab.Rows) - 1
	ideal, _ := cell(t, tab, last, "ideal_gbps")
	off, _ := cell(t, tab, last, "off_gbps")
	if off >= ideal {
		t.Errorf("DDIO off (%v) not slower than ideal (%v) under antagonism", off, ideal)
	}
}

func TestExtOnsetFixedWindowsOverflow(t *testing.T) {
	o := quick
	o.Warmup, o.Measure = 6*sim.Millisecond, 8*sim.Millisecond
	tab, err := ExtOnset(o)
	if err != nil {
		t.Fatal(err)
	}
	// Quick mode: row 0 = steady Swift at a 25µs target (no drops);
	// row 1 = bursty fixed-window TCP-like (footnote 5 overflow).
	steady, _ := cell(t, tab, 0, "drop_pct")
	fixed, _ := cell(t, tab, 1, "drop_pct")
	if steady > 0.5 {
		t.Errorf("steady Swift at a low target drops %v%%, want ≈0", steady)
	}
	if fixed < 1 {
		t.Errorf("fixed-window burst onsets drop %v%%, want substantial overflow", fixed)
	}
}
