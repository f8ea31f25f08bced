package core

import (
	"strconv"

	"hic/internal/runcache"
)

// SimVersion salts every cache key. Bump it whenever a change anywhere
// in the simulator can alter the Results produced for a given Params —
// engine semantics, component timing, congestion-control behavior, or
// the Results schema itself. Old cache entries then simply stop being
// addressed; no explicit invalidation pass is needed.
const SimVersion = "hic-sim-2"

// ParamsFieldCount pins the number of fields in Params. A test asserts
// it by reflection: adding a Params field without extending Canonical
// below (and bumping this constant) would silently alias distinct
// scenarios to one cache key.
const ParamsFieldCount = 31

// Canonical renders every Params field into a stable, unambiguous
// string. Field order is fixed, values are printed in fmt's %v form
// (shortest round-trip 'g' form for floats, durations as integer
// nanoseconds), and entries are ';'-separated with explicit names so
// no two distinct Params can collide textually. Every cache key, blob
// key and stored entry is addressed by these bytes, so the encoding
// must never change without a SimVersion bump; TestCanonicalBytesPinned
// holds it to the fmt form. It appends into one stack buffer and
// allocates only the returned string.
func (p Params) Canonical() string {
	var buf [640]byte
	b := buf[:0]
	b = canonUint(b, "Seed", p.Seed)
	b = canonInt(b, "Threads", int64(p.Threads))
	b = canonInt(b, "Senders", int64(p.Senders))
	b = canonUint(b, "RxRegionBytes", p.RxRegionBytes)
	b = canonBool(b, "IOMMU", p.IOMMU)
	b = canonBool(b, "Hugepages", p.Hugepages)
	b = canonInt(b, "AntagonistCores", int64(p.AntagonistCores))
	b = canonString(b, "CC", string(p.CC))
	b = canonFloat(b, "FixedCwnd", p.FixedCwnd)
	b = canonInt(b, "HostTarget", int64(p.HostTarget))
	b = canonInt(b, "NICBufferBytes", int64(p.NICBufferBytes))
	b = canonInt(b, "DeviceTLBEntries", int64(p.DeviceTLBEntries))
	b = canonBool(b, "StrictIOMMU", p.StrictIOMMU)
	b = canonFloat(b, "LinkLatencyScale", p.LinkLatencyScale)
	b = canonFloat(b, "MemoryIOReservedShare", p.MemoryIOReservedShare)
	b = canonBool(b, "SubRTTHostECN", p.SubRTTHostECN)
	b = canonInt(b, "FabricECNThresholdBytes", int64(p.FabricECNThresholdBytes))
	b = canonInt(b, "CPUCores", int64(p.CPUCores))
	b = canonInt(b, "InitialActiveCores", int64(p.InitialActiveCores))
	b = canonBool(b, "DynamicCoreScaling", p.DynamicCoreScaling)
	b = canonBool(b, "AntagonistRemoteNUMA", p.AntagonistRemoteNUMA)
	b = canonFloat(b, "CopyReadFraction", p.CopyReadFraction)
	b = canonBool(b, "PerQueueNICBuffers", p.PerQueueNICBuffers)
	b = canonFloat(b, "VictimConnGbps", p.VictimConnGbps)
	b = canonBool(b, "SenderHostModel", p.SenderHostModel)
	b = canonInt(b, "SenderAntagonistCores", int64(p.SenderAntagonistCores))
	b = canonFloat(b, "OfferedGbps", p.OfferedGbps)
	b = canonFloat(b, "BurstDuty", p.BurstDuty)
	b = canonInt(b, "BurstPeriod", int64(p.BurstPeriod))
	b = canonInt(b, "Warmup", int64(p.Warmup))
	b = canonInt(b, "Measure", int64(p.Measure))
	return string(b)
}

func canonUint(b []byte, name string, v uint64) []byte {
	return append(strconv.AppendUint(canonName(b, name), v, 10), ';')
}

func canonInt(b []byte, name string, v int64) []byte {
	return append(strconv.AppendInt(canonName(b, name), v, 10), ';')
}

func canonBool(b []byte, name string, v bool) []byte {
	return append(strconv.AppendBool(canonName(b, name), v), ';')
}

func canonFloat(b []byte, name string, v float64) []byte {
	return append(strconv.AppendFloat(canonName(b, name), v, 'g', -1, 64), ';')
}

func canonString(b []byte, name, v string) []byte {
	return append(append(canonName(b, name), v...), ';')
}

// canonName opens one "name=value;" entry.
func canonName(b []byte, name string) []byte {
	return append(append(b, name...), '=')
}

// CacheKey content-addresses the scenario: sha256 over the simulator
// version salt and the canonical parameter encoding.
func (p Params) CacheKey() string {
	return runcache.Key(SimVersion, p.Canonical())
}
