// Command bench is the end-to-end benchmark of the hic simulator: four
// closed-loop workloads driven through the library's public entry
// points, one workload per process.
//
//	bash bench/run.sh --workload des_point --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics, measured with
// no instrumentation attached. With --trace 1 they are the per-layer
// metrics: the workload runs untraced for half the time and traced for
// the other half (CPU profile, event sink, timed cache backend, pool
// sampler), and the layer ledger, profile and every per-layer number
// are also written under --trace-dir. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workDir  string
	traceDir string
	// small shrinks every workload to smoke-test size.
	small bool
}

// opResult is one op's output. Ops with equal keys ran identical
// inputs, so their outputs must be byte-identical.
type opResult struct {
	key string
	out []byte
}

// instance is one set-up workload, ready to run ops.
type instance interface {
	op(k int) (opResult, error)
	close() error
	// busy samples the runner pools the workload executes on.
	busy() (busy, workers float64)
	// layers adds the workload's own per-layer metrics from a traced
	// loop and its CPU ledger.
	layers(st loopStats, ledger, m map[string]float64)
}

// workload describes one closed loop. Ops are checked for a stop only
// at round boundaries, so every run executes the same input mix.
type workload struct {
	name string
	// roundLen is the number of ops in one cycle of the input mix.
	roundLen int
	// minOps is the number of ops every run executes, however short;
	// the digest covers exactly these. It is at least one round.
	minOps int
	// setups is how many times an untraced run sets the workload up;
	// setup_s is the median and the last instance is measured.
	setups int
	setup  func(cfg config, tr *tracer) (instance, error)
}

// The warm workloads set up once: their set-up is a cold pass over a
// 300-host fleet, ~15 s on 2 CPUs, and three would not fit the run
// budget.
var workloads = []workload{
	{name: "des_point", roundLen: len(regimes), minOps: desPrefixOps, setups: 3, setup: setupDESPoint},
	{name: "fleet_cold", roundLen: 1, minOps: 1, setups: 3, setup: setupFleetCold},
	{name: "fleet_warm", roundLen: 1, minOps: 3, setups: 1, setup: setupFleetWarm},
	{name: "serve_warm", roundLen: 2, minOps: 10, setups: 1, setup: setupServeWarm},
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// loopStats is what one timed loop measured.
type loopStats struct {
	ops     int
	failed  int
	lat     []float64 // ms per op
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
	digest  string
}

// runLoop runs whole rounds of ops for about d: it stops at the round
// boundary nearest to d, and never before w.minOps ops.
func runLoop(w workload, inst instance, d time.Duration) loopStats {
	var st loopStats
	seen := map[string][sha256.Size]byte{}
	dg := sha256.New()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	for k := 0; ; k++ {
		if k%w.roundLen == 0 && k >= w.minOps {
			elapsed := time.Since(start)
			if perRound := elapsed / time.Duration(k/w.roundLen); elapsed+perRound/2 >= d {
				break
			}
		}
		t0 := time.Now()
		res, err := inst.op(k)
		st.lat = append(st.lat, float64(time.Since(t0).Nanoseconds())/1e6)
		st.ops++
		if err != nil {
			st.failed++
			fmt.Fprintf(os.Stderr, "%s: op %d: %v\n", w.name, k, err)
			continue
		}
		sum := sha256.Sum256(res.out)
		if prev, ok := seen[res.key]; ok && prev != sum {
			st.failed++
			fmt.Fprintf(os.Stderr, "%s: op %d: repeated input %s gave different output\n", w.name, k, res.key)
		}
		seen[res.key] = sum
		if k < w.minOps {
			dg.Write(sum[:])
		}
	}
	st.wall = time.Since(start)
	st.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	st.mallocs = ms1.Mallocs - ms0.Mallocs
	st.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	st.gcs = ms1.NumGC - ms0.NumGC
	st.digest = hex.EncodeToString(dg.Sum(nil))
	return st
}

func (s loopStats) perOp(v float64) float64 { return v / float64(s.ops) }

func (s loopStats) throughput() float64 { return float64(s.ops) / s.wall.Seconds() }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one invocation and returns its result; the digest is
// returned separately because it is an output, not a metric.
func run(cfg config) (result, string, error) {
	w, err := lookup(cfg.workload)
	if err != nil {
		return result{}, "", err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return result{}, "", err
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return runTraced(cfg, w, d)
	}

	repeats := w.setups
	if cfg.small {
		repeats = 1
	}
	var setups []float64
	var inst instance
	for i := 0; i < repeats; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return result{}, "", err
			}
		}
		t0 := time.Now()
		inst, err = w.setup(cfg, nil)
		if err != nil {
			return result{}, "", fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	st := runLoop(w, inst, d)
	if err := inst.close(); err != nil {
		return result{}, "", err
	}
	fmt.Fprintf(os.Stderr, "%s: %d ops in %.1fs, p50 %.2f ms, p95 %.2f ms, digest %s\n",
		w.name, st.ops, st.wall.Seconds(), quantile(st.lat, 0.5), quantile(st.lat, 0.95), st.digest)
	res := result{
		Correct:   st.failed == 0,
		Attempted: st.ops,
		Failed:    st.failed,
		Metrics: map[string]metric{
			"setup_s":        {quantile(setups, 0.5), "s"},
			"throughput":     {st.throughput(), "op/s"},
			"latency_p50_ms": {quantile(st.lat, 0.5), "ms"},
			"cpu_ms_per_op":  {st.perOp(float64(st.cpu.Nanoseconds()) / 1e6), "ms"},
			"allocs_per_op":  {st.perOp(float64(st.mallocs)), "count"},
			"bytes_per_op":   {st.perOp(float64(st.bytes)), "B"},
			"max_rss_mb":     {maxRSSMB(), "MB"},
		},
	}
	return res, st.digest, nil
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "des_point", "workload to run: des_point, fleet_cold, fleet_warm or serve_warm")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "how long the timed loop runs")
	traceFlag := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.StringVar(&cfg.workDir, "work-dir", ".bench_build/work", "scratch directory for stores and caches")
	flag.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/trace", "where a traced run writes its profile and layer ledger")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = *traceFlag == 1
	cfg.workDir = filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))

	res, digest, err := run(cfg)
	if rmErr := os.RemoveAll(cfg.workDir); err == nil && rmErr != nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("digest %s\n", digest)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "bench: output check failed")
		os.Exit(1)
	}
}
