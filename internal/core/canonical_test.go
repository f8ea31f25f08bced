package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hic/internal/core"
	"hic/internal/sim"
)

// fmtCanonical is the reference encoding Params.Canonical must
// reproduce byte for byte: one "%s=%v;" entry per field, in field
// order. Every cache key and every stored result, calibration and
// checkpoint entry on disk is addressed by these bytes.
func fmtCanonical(p core.Params) string {
	var b strings.Builder
	f := func(name string, v any) {
		fmt.Fprintf(&b, "%s=%v;", name, v)
	}
	f("Seed", p.Seed)
	f("Threads", p.Threads)
	f("Senders", p.Senders)
	f("RxRegionBytes", p.RxRegionBytes)
	f("IOMMU", p.IOMMU)
	f("Hugepages", p.Hugepages)
	f("AntagonistCores", p.AntagonistCores)
	f("CC", string(p.CC))
	f("FixedCwnd", p.FixedCwnd)
	f("HostTarget", int64(p.HostTarget))
	f("NICBufferBytes", p.NICBufferBytes)
	f("DeviceTLBEntries", p.DeviceTLBEntries)
	f("StrictIOMMU", p.StrictIOMMU)
	f("LinkLatencyScale", p.LinkLatencyScale)
	f("MemoryIOReservedShare", p.MemoryIOReservedShare)
	f("SubRTTHostECN", p.SubRTTHostECN)
	f("FabricECNThresholdBytes", p.FabricECNThresholdBytes)
	f("CPUCores", p.CPUCores)
	f("InitialActiveCores", p.InitialActiveCores)
	f("DynamicCoreScaling", p.DynamicCoreScaling)
	f("AntagonistRemoteNUMA", p.AntagonistRemoteNUMA)
	f("CopyReadFraction", p.CopyReadFraction)
	f("PerQueueNICBuffers", p.PerQueueNICBuffers)
	f("VictimConnGbps", p.VictimConnGbps)
	f("SenderHostModel", p.SenderHostModel)
	f("SenderAntagonistCores", p.SenderAntagonistCores)
	f("OfferedGbps", p.OfferedGbps)
	f("BurstDuty", p.BurstDuty)
	f("BurstPeriod", int64(p.BurstPeriod))
	f("Warmup", int64(p.Warmup))
	f("Measure", int64(p.Measure))
	return b.String()
}

// TestCanonicalBytesPinned pins Canonical's bytes two ways: a literal
// golden for one fixed Params with every field set, and a differential
// check against the fmt reference over randomized Params that set every
// field (by reflection, so a new field is covered without editing the
// generator) to edge values — negative durations, zero, 1e21, 1e-5,
// infinities, the largest and smallest floats, and CC strings holding
// the ';' and '=' separators. A mismatch would move every cache key.
func TestCanonicalBytesPinned(t *testing.T) {
	fixed := core.Params{
		Seed: 7, Threads: 12, Senders: 40, RxRegionBytes: 12 << 20,
		IOMMU: true, Hugepages: true, AntagonistCores: 9, CC: core.CCSwift,
		FixedCwnd: 2.5, HostTarget: 100 * sim.Microsecond, NICBufferBytes: 1 << 20,
		DeviceTLBEntries: 64, StrictIOMMU: true, LinkLatencyScale: 0.5,
		MemoryIOReservedShare: 0.125, SubRTTHostECN: true, FabricECNThresholdBytes: 30000,
		CPUCores: 8, InitialActiveCores: 4, DynamicCoreScaling: true,
		AntagonistRemoteNUMA: true, CopyReadFraction: 0.28, PerQueueNICBuffers: true,
		VictimConnGbps: 1e21, SenderHostModel: true, SenderAntagonistCores: 3,
		OfferedGbps: 87.5, BurstDuty: 1e-5, BurstPeriod: -2 * sim.Millisecond,
		Warmup: math.MinInt64, Measure: 10 * sim.Millisecond,
	}
	const golden = "Seed=7;Threads=12;Senders=40;RxRegionBytes=12582912;IOMMU=true;Hugepages=true;" +
		"AntagonistCores=9;CC=swift;FixedCwnd=2.5;HostTarget=100000;NICBufferBytes=1048576;" +
		"DeviceTLBEntries=64;StrictIOMMU=true;LinkLatencyScale=0.5;MemoryIOReservedShare=0.125;" +
		"SubRTTHostECN=true;FabricECNThresholdBytes=30000;CPUCores=8;InitialActiveCores=4;" +
		"DynamicCoreScaling=true;AntagonistRemoteNUMA=true;CopyReadFraction=0.28;" +
		"PerQueueNICBuffers=true;VictimConnGbps=1e+21;SenderHostModel=true;SenderAntagonistCores=3;" +
		"OfferedGbps=87.5;BurstDuty=1e-05;BurstPeriod=-2000000;Warmup=-9223372036854775808;" +
		"Measure=10000000;"
	if got := fixed.Canonical(); got != golden {
		t.Fatalf("Canonical moved:\n got %s\nwant %s", got, golden)
	}
	if got := fmtCanonical(fixed); got != golden {
		t.Fatalf("fmt reference disagrees with the golden:\n got %s\nwant %s", got, golden)
	}
	var zero core.Params
	if got, want := zero.Canonical(), fmtCanonical(zero); got != want {
		t.Fatalf("zero Params: got %s, want %s", got, want)
	}

	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 1e21, 1e20, -1e21, 1e-5, 1e-4,
		123456789, 1.5e300, math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1)}
	ints := []int64{0, 1, -1, 1e9, -1e9, math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32}
	ccs := []string{"", "swift", "dctcp", "a;b=c", "=;", "Seed=1;", "x;y", "ü;="}
	rng := rand.New(rand.NewSource(1))
	fill := func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			switch f.Kind() {
			case reflect.Uint64:
				if rng.Intn(3) == 0 {
					f.SetUint(rng.Uint64())
				} else {
					f.SetUint(uint64(rng.Intn(1 << 20)))
				}
			case reflect.Int, reflect.Int64:
				if rng.Intn(2) == 0 {
					f.SetInt(ints[rng.Intn(len(ints))])
				} else {
					f.SetInt(rng.Int63n(1<<40) - 1<<39)
				}
			case reflect.Bool:
				f.SetBool(rng.Intn(2) == 0)
			case reflect.String:
				f.SetString(ccs[rng.Intn(len(ccs))])
			case reflect.Float64:
				switch rng.Intn(3) {
				case 0:
					f.SetFloat(floats[rng.Intn(len(floats))])
				case 1:
					f.SetFloat(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30)))
				default:
					f.SetFloat(math.Float64frombits(rng.Uint64()))
				}
			default:
				t.Fatalf("Params.%s has kind %s the generator does not cover", v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	for i := 0; i < 20000; i++ {
		var p core.Params
		fill(reflect.ValueOf(&p).Elem())
		if got, want := p.Canonical(), fmtCanonical(p); got != want {
			t.Fatalf("randomized Params %d:\n got %s\nwant %s", i, got, want)
		}
	}

	if allocs := testing.AllocsPerRun(100, func() { _ = fixed.Canonical() }); allocs > 1 {
		t.Errorf("Canonical allocates %.0f times per call, want 1 (the returned string)", allocs)
	}
}

func BenchmarkCanonical(b *testing.B) {
	p := core.DefaultParams(12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Canonical()
	}
}
