package runcache

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"hic/internal/host"
)

// The fixtures under testdata/ were written by the indented entry
// format (json.MarshalIndent) that stores used before entries became
// compact: one result entry and one calibration blob. Stores full of
// such entries must keep hitting.
const (
	fixtureResultVersion = "hic-sim-2"
	fixtureCalibVersion  = "hic-calib-1|fixture"
	fixtureCanonical     = "Threads=12;Senders=40;RxRegionBytes=12582912;IOMMU=true;Hugepages=true;" +
		"AntagonistCores=0;CC=swift;FixedCwnd=0;HostTarget=0;NICBufferBytes=0;DeviceTLBEntries=0;" +
		"StrictIOMMU=false;LinkLatencyScale=0;MemoryIOReservedShare=0;SubRTTHostECN=false;" +
		"FabricECNThresholdBytes=0;CPUCores=0;InitialActiveCores=0;DynamicCoreScaling=false;" +
		"AntagonistRemoteNUMA=false;CopyReadFraction=0;PerQueueNICBuffers=false;VictimConnGbps=0;" +
		"SenderHostModel=false;SenderAntagonistCores=0;OfferedGbps=0;BurstDuty=0;BurstPeriod=0;" +
		"Warmup=20000000;Measure=30000000;"
	fixtureResultCanonical = "Seed=1;" + fixtureCanonical
	fixtureCalibCanonical  = "Seed=0;" + fixtureCanonical
)

// fixtureCalib is the calibration blob's payload shape.
type fixtureCalib struct {
	Anchors []fixtureAnchor `json:"anchors"`
	Noise   []fixtureNoise  `json:"noise"`
}

type fixtureAnchor struct {
	Ant     int     `json:"ant"`
	Gain    float64 `json:"gain"`
	DropOff float64 `json:"drop_off"`
	OK      bool    `json:"ok"`
}

type fixtureNoise struct {
	Ant int     `json:"ant"`
	Err float64 `json:"err"`
}

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// storeWith opens a fresh disk store holding data under key.
func storeWith(t *testing.T, key string, data []byte) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.be.Store(key, data); err != nil {
		t.Fatal(err)
	}
	return s
}

// withBlob rewrites the calibration fixture's envelope: blob set to raw,
// or removed when raw is nil. The rewrite stays indented.
func withBlob(t *testing.T, raw json.RawMessage) []byte {
	t.Helper()
	var env map[string]json.RawMessage
	if err := json.Unmarshal(readFixture(t, "calib_indented.json"), &env); err != nil {
		t.Fatal(err)
	}
	if raw == nil {
		delete(env, "blob")
	} else {
		env["blob"] = raw
	}
	data, err := json.MarshalIndent(env, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestIndentedEntriesStillHit: a result entry and a calibration blob
// in the indented layout decode to the payload they were written with.
func TestIndentedEntriesStillHit(t *testing.T) {
	key := Key(fixtureResultVersion, fixtureResultCanonical)
	s := storeWith(t, key, readFixture(t, "result_indented.json"))
	if !s.Contains(key, fixtureResultVersion, fixtureResultCanonical) {
		t.Fatal("Contains missed the indented result entry")
	}
	r, ok := s.Get(key, fixtureResultVersion, fixtureResultCanonical)
	if !ok {
		t.Fatal("indented result entry missed")
	}
	want := host.Results{AppThroughputGbps: 91.25, LinkUtilization: 0.9125, DropRatePct: 0.375,
		Drops: 3, RxPackets: 797, Goodput: 3260000, Reads: 812}
	if r != want {
		t.Fatalf("indented result entry decoded to %+v, want %+v", r, want)
	}

	key = Key(fixtureCalibVersion, fixtureCalibCanonical)
	s = storeWith(t, key, readFixture(t, "calib_indented.json"))
	var c fixtureCalib
	if !s.GetBlob(key, fixtureCalibVersion, fixtureCalibCanonical, &c) {
		t.Fatal("indented calibration blob missed")
	}
	if len(c.Anchors) != 2 || c.Anchors[1].Ant != 4 || c.Anchors[1].Gain != 0.97 || !c.Anchors[1].OK ||
		c.Anchors[0].DropOff != -0.001 || len(c.Noise) != 1 || c.Noise[0].Err != 0.012 {
		t.Fatalf("indented calibration blob decoded to %+v", c)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 0 || st.Corrupt != 0 {
		t.Fatalf("stats after one blob hit: %+v", st)
	}
}

// TestBlobMissVersusCorrupt pins how a blob lookup classifies a bad
// entry: one that is well-formed but not for this lookup (another
// version, no blob, a null blob) is a miss and stays on disk; one that
// does not decode (a broken envelope, a payload of the wrong shape) is
// dropped as corrupt. out is written only on a hit.
func TestBlobMissVersusCorrupt(t *testing.T) {
	key := Key(fixtureCalibVersion, fixtureCalibCanonical)
	cases := []struct {
		name    string
		data    []byte
		version string
		corrupt bool
	}{
		{"wrong version", readFixture(t, "calib_indented.json"), "hic-calib-1|other", false},
		{"no blob field", withBlob(t, nil), fixtureCalibVersion, false},
		{"null blob", withBlob(t, json.RawMessage("null")), fixtureCalibVersion, false},
		{"wrong-shape payload", withBlob(t, json.RawMessage(`{"anchors": "none"}`)), fixtureCalibVersion, true},
		{"payload not an object", withBlob(t, json.RawMessage(`[1, 2]`)), fixtureCalibVersion, true},
		{"wrong-shape payload, other version", withBlob(t, json.RawMessage(`{"anchors": "none"}`)), "hic-calib-1|other", false},
		{"envelope field of the wrong type", bytes.Replace(readFixture(t, "calib_indented.json"),
			[]byte(`"hic-calib-1|fixture"`), []byte(`5`), 1), fixtureCalibVersion, true},
		{"truncated envelope", readFixture(t, "calib_indented.json")[:200], fixtureCalibVersion, true},
	}
	for _, tc := range cases {
		s := storeWith(t, key, tc.data)
		out := fixtureCalib{Noise: make([]fixtureNoise, 7)}
		if s.GetBlob(key, tc.version, fixtureCalibCanonical, &out) {
			t.Errorf("%s: served as a hit", tc.name)
			continue
		}
		if len(out.Noise) != 7 || out.Anchors != nil {
			t.Errorf("%s: a miss wrote out: %+v", tc.name, out)
		}
		st := s.Stats()
		if st.Misses != 1 || st.Hits != 0 {
			t.Errorf("%s: stats %+v, want exactly one miss", tc.name, st)
		}
		_, present := s.be.Load(key)
		if tc.corrupt {
			if st.Corrupt != 1 || present {
				t.Errorf("%s: corrupt=%d, still on disk=%v; want it dropped as corrupt", tc.name, st.Corrupt, present)
			}
		} else if st.Corrupt != 0 || !present {
			t.Errorf("%s: corrupt=%d, still on disk=%v; want a plain miss", tc.name, st.Corrupt, present)
		}
	}
}

// TestEntriesAreCompact: new result and blob entries are written as
// compact JSON and read back.
func TestEntriesAreCompact(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rk := Key("v1", "a")
	if err := s.Put(rk, "v1", "a", host.Results{AppThroughputGbps: 3}); err != nil {
		t.Fatal(err)
	}
	bk := Key("hic-calib-test", "sig")
	if err := s.PutBlob(bk, "hic-calib-test", "sig", map[string][]int{"x": {1, 2}}); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{rk, bk} {
		data, _ := s.be.Load(k)
		var compact bytes.Buffer
		if err := json.Compact(&compact, data); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, compact.Bytes()) {
			t.Errorf("entry %s is not compact JSON:\n%s", k, data)
		}
	}
	fresh, _ := Open(s.Dir())
	if r, ok := fresh.Get(rk, "v1", "a"); !ok || r.AppThroughputGbps != 3 {
		t.Fatalf("compact result entry: %+v, %v", r, ok)
	}
	var out map[string][]int
	if !fresh.GetBlob(bk, "hic-calib-test", "sig", &out) || len(out["x"]) != 2 {
		t.Fatalf("compact blob entry: %v", out)
	}
}

// countingBackend counts the byte-layer reads and recency bumps a
// Store makes.
type countingBackend struct {
	Backend
	loads, touches atomic.Int64
}

func (c *countingBackend) Load(key string) ([]byte, bool) {
	c.loads.Add(1)
	return c.Backend.Load(key)
}

func (c *countingBackend) Touch(key string) {
	c.touches.Add(1)
	c.Backend.Touch(key)
}

// TestContainsThenGetReadsOnce: the warm planner peeks with Contains
// and the run then resolves the same key through GetOrCompute. The
// pair reads and decodes the entry once, and still counts one hit and
// bumps recency once, as a lone Get would.
func TestContainsThenGetReadsOnce(t *testing.T) {
	dir := t.TempDir()
	seed, _ := Open(dir)
	key := Key("v1", "a")
	want := host.Results{AppThroughputGbps: 7}
	if err := seed.Put(key, "v1", "a", want); err != nil {
		t.Fatal(err)
	}
	open := func() (*Store, *countingBackend) {
		d, err := NewDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		cb := &countingBackend{Backend: d}
		return NewStore(cb), cb
	}
	compute := func() (host.Results, error) {
		t.Fatal("a cached entry was recomputed")
		return host.Results{}, nil
	}

	// Baseline: a lone lookup is one load and one touch.
	lone, lb := open()
	if r, err := lone.GetOrCompute(key, "v1", "a", compute); err != nil || r != want {
		t.Fatalf("lone lookup: %+v, %v", r, err)
	}
	if lb.loads.Load() != 1 || lb.touches.Load() != 1 {
		t.Fatalf("lone lookup: %d loads, %d touches; want 1 and 1", lb.loads.Load(), lb.touches.Load())
	}

	s, cb := open()
	if !s.Contains(key, "v1", "a") {
		t.Fatal("Contains missed a stored entry")
	}
	if cb.loads.Load() != 1 || cb.touches.Load() != 0 {
		t.Fatalf("after Contains: %d loads, %d touches; want 1 and 0", cb.loads.Load(), cb.touches.Load())
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Contains counted a lookup: %+v", st)
	}
	for i := 1; i <= 2; i++ {
		if r, err := s.GetOrCompute(key, "v1", "a", compute); err != nil || r != want {
			t.Fatalf("lookup %d: %+v, %v", i, r, err)
		}
		if cb.loads.Load() != 1 || cb.touches.Load() != 1 {
			t.Fatalf("after lookup %d: %d loads, %d touches; want 1 and 1", i, cb.loads.Load(), cb.touches.Load())
		}
		if st := s.Stats(); st.Hits != uint64(i) || st.Misses != 0 || st.Corrupt != 0 {
			t.Fatalf("after lookup %d: %+v", i, st)
		}
	}

	// A peek that misses fills nothing: the lookup that follows reads
	// the backend again and counts its miss, as before.
	missing := Key("v1", "b")
	if s.Contains(missing, "v1", "b") {
		t.Fatal("Contains found a missing entry")
	}
	if _, ok := s.Get(missing, "v1", "b"); ok {
		t.Fatal("Get found a missing entry")
	}
	if cb.loads.Load() != 3 || s.Misses() != 1 {
		t.Fatalf("missing key: %d loads, %d misses; want 3 and 1", cb.loads.Load(), s.Misses())
	}
}
