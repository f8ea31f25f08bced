package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hic/internal/cluster"
	"hic/internal/core"
	"hic/internal/fidelity"
	"hic/internal/runcache"
	"hic/internal/runner"
	"hic/internal/serve"
	"hic/internal/sim"
)

// mix is splitmix64's finalizer: every input the workloads draw comes
// from mix applied to the run seed, so a seed fixes the inputs.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// regimes are the paper operating points des_point cycles through, one
// per op in this order.
var regimes = []struct {
	name   string
	params func() core.Params
}{
	// Figure 3, IOMMU on at 12 cores: the IOTLB thrashes.
	{"fig3_iommu_on_12", func() core.Params { return core.DefaultParams(12) }},
	{"fig3_iommu_off_12", func() core.Params {
		p := core.DefaultParams(12)
		p.IOMMU = false
		return p
	}},
	// Four cores' working set fits the IOTLB.
	{"fig3_iommu_on_4", func() core.Params { return core.DefaultParams(4) }},
	{"fig4_4k_pages", func() core.Params {
		p := core.DefaultParams(12)
		p.Hugepages = false
		return p
	}},
	{"fig6_stream_8", func() core.Params {
		p := core.DefaultParams(12)
		p.AntagonistCores = 8
		return p
	}},
}

// desPrefixOps is des_point's minimum op count: two rounds of regimes.
const desPrefixOps = 10

// desPoint runs single DES points on one runner arena: no router, no
// cache, no dedup.
type desPoint struct {
	pool            *runner.Pool
	seed            uint64
	seeds           []uint64
	warmup, measure sim.Duration
	tr              *tracer
	acc             desAcc
}

func setupDESPoint(cfg config, tr *tracer) (instance, error) {
	d := &desPoint{pool: runner.New(1), seed: cfg.seed, warmup: 2 * sim.Millisecond, measure: 8 * sim.Millisecond, tr: tr}
	n := 60
	if cfg.small {
		n = 1 // every regime's second point repeats its first
		d.warmup, d.measure = sim.Millisecond/2, sim.Millisecond
	}
	for i := 0; i < n; i++ {
		d.seeds = append(d.seeds, mix(cfg.seed^uint64(i+1)<<40))
	}
	// One point allocates the arena's engine, packet pool and registry,
	// so the timed loop starts from a warm arena.
	if _, err := d.op(0); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *desPoint) params(k int) core.Params {
	p := regimes[k%len(regimes)].params()
	p.Seed = d.seeds[mix(d.seed+uint64(k))%uint64(len(d.seeds))]
	p.Warmup, p.Measure = d.warmup, d.measure
	return p
}

func (d *desPoint) op(k int) (opResult, error) {
	p := d.params(k)
	var out []byte
	err := d.pool.Map(1, func(_ int, a *runner.Arena) error {
		t0 := time.Now()
		tb, err := p.BuildOn(a)
		if err != nil {
			return err
		}
		t1 := time.Now()
		res := tb.Run(p.Warmup, p.Measure)
		if d.tr.active() {
			d.acc.add(k, tb, t1.Sub(t0), time.Since(t1))
		}
		out, err = json.Marshal(res)
		return err
	})
	return opResult{key: p.Canonical(), out: out}, err
}

func (d *desPoint) close() error { return nil }

func (d *desPoint) busy() (busy, workers float64) {
	st := d.pool.Stats()
	return float64(st.Busy), float64(st.Workers)
}

// Fleet runs use the bench settings of the repo's other fleet benches:
// short windows, tol 0.10, 5% audits, early stop, knee search and
// calibration transfer on, full warm start.
const (
	fleetTol   = 0.10
	fleetAudit = 0.05
)

// fleetHosts is the fleet size of every fleet workload. By about 300
// hosts a fleet draws nearly all of the catalog's ~50 signatures, so
// its calibration work, and with it the cost of a pass, hardly depends
// on the fleet seed.
func fleetHosts(cfg config) int {
	if cfg.small {
		return 4
	}
	return 300
}

func fleetConfig(hosts int, seed uint64) cluster.Config {
	return cluster.Config{Hosts: hosts, Seed: seed, Warmup: 2 * sim.Millisecond, Measure: 3 * sim.Millisecond}
}

// runFleet runs one auto-routed pass with a fresh router over a warm
// store and an optional result cache, and returns the fleet's point
// hash.
func runFleet(cfg cluster.Config, warm, results *runcache.Store) (string, cluster.Stats, error) {
	router, err := fidelity.New(fidelity.Config{
		Mode:          fidelity.ModeAuto,
		Tol:           fleetTol,
		AuditRate:     fleetAudit,
		EarlyStop:     true,
		AnchorSeeds:   cluster.SeedPool(cfg),
		KneeSearch:    true,
		Transfer:      true,
		Cache:         results,
		Warm:          fidelity.WarmFull,
		WarmStore:     warm,
		WarmAuditRate: fleetAudit,
	})
	if err != nil {
		return "", cluster.Stats{}, err
	}
	cfg.Exec = router
	cfg.Cache = results
	return hashFleet(cfg)
}

// hashFleet streams the fleet into a point hash. An audit over tol is
// not an error here: at these short windows a rare fluid point misses
// tol (0.135 on one fleet in twenty), so the traced run reports the
// audit error as fidelity.audit_max_err, and accuracy is gated by the
// repo's bench gates at longer windows.
func hashFleet(cfg cluster.Config) (string, cluster.Stats, error) {
	h := cluster.NewPointHasher()
	st, err := cluster.RunStream(cfg, func(p cluster.Point) error {
		h.Add(p)
		return nil
	})
	return h.Sum(), st, err
}

func sharedBusy() (busy, workers float64) {
	st := runner.Shared().Stats()
	return float64(st.Busy), float64(st.Workers)
}

// fleetCold runs a never-seen fleet per op: a new fleet seed, a fresh
// router and an empty warm store, so every signature calibrates from
// scratch and persists its calibration.
type fleetCold struct {
	dir   string
	seed  uint64
	hosts int
	tr    *tracer
	acc   fleetAcc
}

func setupFleetCold(cfg config, tr *tracer) (instance, error) {
	dir := filepath.Join(cfg.workDir, "fleet_cold")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Give every slot of the shared pool its arena, so the first pass
	// does not pay for allocating them.
	pool := runner.Shared()
	err := pool.Map(pool.Workers(), func(i int, a *runner.Arena) error {
		p := regimes[i%len(regimes)].params()
		p.Warmup, p.Measure = 2*sim.Millisecond, 3*sim.Millisecond
		_, err := core.RunOn(p, a)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &fleetCold{dir: dir, seed: cfg.seed, hosts: fleetHosts(cfg), tr: tr}, nil
}

func (f *fleetCold) op(k int) (opResult, error) {
	seed := mix(f.seed<<20 + uint64(k))
	dir, err := os.MkdirTemp(f.dir, "pass-")
	if err != nil {
		return opResult{}, err
	}
	store, err := f.tr.openStore(dir)
	if err != nil {
		return opResult{}, err
	}
	sum, st, err := runFleet(fleetConfig(f.hosts, seed), store, nil)
	if f.tr.active() {
		f.acc.add(st)
	}
	return opResult{key: fmt.Sprint(seed), out: []byte(sum)}, err
}

func (f *fleetCold) close() error { return os.RemoveAll(f.dir) }

func (f *fleetCold) busy() (busy, workers float64) { return sharedBusy() }

// fleetWarm reruns one fleet over the warm store and result cache a
// cold pass filled during setup, with a fresh router and freshly opened
// stores per op, as a second invocation of the fleet would. Every pass
// must reproduce the cold pass's points byte for byte.
type fleetWarm struct {
	dir  string
	cfg  cluster.Config
	want string
	tr   *tracer
	acc  fleetAcc
}

func setupFleetWarm(cfg config, tr *tracer) (instance, error) {
	f := &fleetWarm{
		dir: filepath.Join(cfg.workDir, "fleet_warm"),
		cfg: fleetConfig(fleetHosts(cfg), mix(cfg.seed)),
		tr:  tr,
	}
	if err := os.RemoveAll(f.dir); err != nil {
		return nil, err
	}
	warm, results, err := f.open()
	if err != nil {
		return nil, err
	}
	if f.want, _, err = runFleet(f.cfg, warm, results); err != nil {
		return nil, fmt.Errorf("cold pass: %w", err)
	}
	return f, nil
}

func (f *fleetWarm) open() (warm, results *runcache.Store, err error) {
	if warm, err = f.tr.openStore(filepath.Join(f.dir, "warm")); err != nil {
		return nil, nil, err
	}
	results, err = f.tr.openStore(filepath.Join(f.dir, "results"))
	return warm, results, err
}

func (f *fleetWarm) op(k int) (opResult, error) {
	warm, results, err := f.open()
	if err != nil {
		return opResult{}, err
	}
	sum, st, err := runFleet(f.cfg, warm, results)
	if f.tr.active() {
		f.acc.add(st)
	}
	if err == nil && sum != f.want {
		err = fmt.Errorf("warm pass hash %s, cold pass %s", sum, f.want)
	}
	return opResult{key: "fleet", out: []byte(sum)}, err
}

func (f *fleetWarm) close() error { return os.RemoveAll(f.dir) }

func (f *fleetWarm) busy() (busy, workers float64) { return sharedBusy() }

// serveWarm is a coordinator and two one-thread workers over loopback
// HTTP, queried warm by one closed-loop client. Both query specs cover
// one fleet; the second also streams every point back as NDJSON.
type serveWarm struct {
	specs   []serve.QueryRequest
	want    string
	dir     string
	client  *serve.Client
	hc      *http.Client
	hs      *http.Server
	workers []*serve.Worker
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	tr      *tracer
	acc     serveAcc
}

const serveWorkers = 2

func setupServeWarm(cfg config, tr *tracer) (instance, error) {
	hosts := fleetHosts(cfg)
	spec := serve.QueryRequest{
		Hosts:     hosts,
		Seed:      mix(cfg.seed),
		WarmupMS:  2,
		MeasureMS: 3,
		Fidelity:  string(fidelity.ModeAuto),
		Tol:       fleetTol,
		AuditRate: fleetAudit,
		EarlyStop: true,
		// A fixed shard count keeps the lease traffic per query
		// independent of when the workers register.
		RangeHosts: (hosts + 7) / 8,
	}
	streamed := spec
	streamed.Points = true
	s := &serveWarm{specs: []serve.QueryRequest{spec, streamed}, dir: filepath.Join(cfg.workDir, "serve_warm"), tr: tr}
	if err := os.RemoveAll(s.dir); err != nil {
		return nil, err
	}
	store, err := tr.openStore(filepath.Join(s.dir, "coordinator"))
	if err != nil {
		return nil, err
	}
	// The in-process run fills the coordinator's result cache, and its
	// hash is the reference every merged query must equal.
	if s.want, err = inProcessHash(spec, store); err != nil {
		return nil, fmt.Errorf("in-process reference: %w", err)
	}
	if err := s.start(store); err != nil {
		s.close()
		return nil, err
	}
	// One query per spec builds the workers' resident routers.
	for i := range s.specs {
		if _, err := s.query(i); err != nil {
			s.close()
			return nil, fmt.Errorf("first query: %w", err)
		}
	}
	return s, nil
}

// inProcessHash runs spec as a single-process fleet on store, with
// exactly the router a serve worker builds for it.
func inProcessHash(spec serve.QueryRequest, store *runcache.Store) (string, error) {
	cfg := spec.ClusterConfig()
	cfg.Cache = store
	router, err := fidelity.New(fidelity.Config{
		Mode:        fidelity.ModeAuto,
		Tol:         spec.Tol,
		AuditRate:   spec.AuditRate,
		EarlyStop:   spec.EarlyStop,
		AnchorSeeds: cluster.SeedPool(cfg),
		Cache:       store,
		KneeSearch:  true,
		Transfer:    true,
	})
	if err != nil {
		return "", err
	}
	cfg.Exec = router
	sum, _, err := hashFleet(cfg)
	return sum, err
}

func (s *serveWarm) start(store *runcache.Store) error {
	srv, err := serve.NewServer(serve.Options{Store: store, LeaseTimeout: 2 * time.Minute})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs = &http.Server{Handler: srv.Handler()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.hs.Serve(ln) //nolint:errcheck // returns http.ErrServerClosed on close
	}()
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	for i := 0; i < serveWorkers; i++ {
		w := serve.NewWorker(base, serve.WorkerOptions{Name: fmt.Sprint("w", i), Threads: 1})
		s.workers = append(s.workers, w)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			w.Run(ctx) //nolint:errcheck // returns ctx.Err() on close
		}()
	}
	s.hc = &http.Client{}
	s.client = serve.NewClient(base, s.hc)
	return nil
}

// query runs spec i and checks its merged hash against the in-process
// reference.
func (s *serveWarm) query(i int) (*serve.QueryResult, error) {
	spec := s.specs[i]
	traced := s.tr.active()
	spec.Trace = traced
	t0 := time.Now()
	var first time.Duration
	res, err := s.client.Query(context.Background(), spec, func(serve.QueryEvent) error {
		if first == 0 {
			first = time.Since(t0)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if res.AggregateHash != s.want {
		return nil, fmt.Errorf("merged hash %s, in-process %s", res.AggregateHash, s.want)
	}
	if traced {
		s.acc.add(res, first)
	}
	return res, nil
}

func (s *serveWarm) op(k int) (opResult, error) {
	i := k % len(s.specs)
	res, err := s.query(i)
	if err != nil {
		return opResult{}, err
	}
	return opResult{key: fmt.Sprint(i), out: []byte(res.AggregateHash)}, nil
}

func (s *serveWarm) close() error {
	if s.cancel != nil {
		s.cancel()
	}
	if s.hs != nil {
		s.hs.Close()
	}
	s.wg.Wait()
	if s.hc != nil {
		s.hc.CloseIdleConnections()
	}
	return os.RemoveAll(s.dir)
}

// busy sums the workers' private runner pools.
func (s *serveWarm) busy() (busy, workers float64) {
	for _, w := range s.workers {
		w.MetricsInto(func(name, _ string, v float64) {
			switch name {
			case "hic_pool_slots_busy":
				busy += v
			case "hic_pool_workers":
				workers += v
			}
		})
	}
	return busy, workers
}
