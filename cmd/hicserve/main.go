// Command hicserve is the long-lived simulation service. One binary,
// three roles:
//
// Coordinator (default) — listen for what-if queries, shard each
// fleet's host ranges across registered workers, merge partials in
// range order (byte-identical to a single-process run), and serve the
// shared run cache and warm store to workers over HTTP:
//
//	hicserve -addr :8091 -cache-dir results/cache -warm-dir results/warm
//	hicserve -addr :8091 -local-workers 2        # self-contained: coordinator + 2 in-process workers
//
// Worker — join a coordinator and execute range leases, keeping runner
// arenas and calibrated fidelity routers resident between leases:
//
//	hicserve -join http://coordinator:8091 -name rack7 -threads 8
//
// Client — post one query and print the merged result:
//
//	hicserve -query http://coordinator:8091 -hosts 400 -fidelity auto -tol 0.05
//	hicserve -query http://coordinator:8091 -hosts 400 -csv > fig1.csv
//
// The coordinator's obs control plane (-listen flags) shares the query
// API's mux, so /metrics, /progress, and /debug/pprof ride on the same
// port as /api/v1/query unless -listen names a different one.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hic/internal/cluster"
	"hic/internal/fidelity"
	"hic/internal/obs"
	"hic/internal/runcache"
	"hic/internal/serve"
	"hic/internal/trace"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hicserve: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	// Role selectors.
	join := flag.String("join", "", "run as a shard worker joined to this coordinator URL")
	query := flag.String("query", "", "post one query to this coordinator URL and print the result")

	// Coordinator flags.
	addr := flag.String("addr", ":8091", "coordinator listen address")
	cacheDir := flag.String("cache-dir", runcache.DefaultDir, "run-cache directory the coordinator owns and serves to workers")
	warmDir := flag.String("warm-dir", fidelity.DefaultWarmDir, "warm-start store directory served to workers ('' = no warm store)")
	cacheMaxMB := flag.Int("cache-max-mb", 0, "prune the run cache and warm store to this size at startup, oldest entries first (0 = unbounded)")
	leaseTimeout := flag.Duration("lease-timeout", 30*time.Second, "how long a worker may hold a range lease before it is re-dispensed")
	staleAfter := flag.Duration("stale-after", 0, "mark a worker stale (and WARN if it holds a lease) after this long without contact (0 = half the lease timeout)")
	localWorkers := flag.Int("local-workers", 0, "also spawn this many in-process workers dialing the coordinator's own loopback")

	// Worker flags (also size -local-workers pools).
	name := flag.String("name", "", "worker name (labels logs and results)")
	threads := flag.Int("threads", 0, "worker runner-pool threads (0 = GOMAXPROCS; local workers split this evenly)")
	poll := flag.Duration("poll", 50*time.Millisecond, "worker idle polling cadence")

	// Query flags (client role).
	hosts := flag.Int("hosts", 200, "query: simulated hosts in the fleet")
	windows := flag.Int("windows", 1, "query: measurement bins per host")
	seed := flag.Uint64("seed", 1, "query: fleet seed")
	measureMS := flag.Float64("measure-ms", 0, "query: per-host measurement window in ms (0 = cluster default)")
	warmupMS := flag.Float64("warmup-ms", 0, "query: per-host warmup window in ms (0 = cluster default)")
	fidMode := flag.String("fidelity", "", "query: execution strategy: des, fluid, or auto ('' = plain DES)")
	tol := flag.Float64("tol", 0, "query: fidelity tolerance (0 = router default)")
	auditRate := flag.Float64("audit-rate", 0, "query: fraction of fluid-routed hosts re-run on DES as an audit")
	estop := flag.Bool("estop", false, "query: early-stop measurement windows once estimates converge")
	warm := flag.String("warm", "", "query: cross-run warm start: off, calib, or full ('' = off)")
	noCache := flag.Bool("no-cache", false, "query: bypass the shared run cache")
	rangeHosts := flag.Int("range-hosts", 0, "query: hosts per shard range (0 = auto)")
	csv := flag.Bool("csv", false, "query: stream per-host CSV to stdout instead of the result JSON")
	timeoutSec := flag.Float64("timeout-sec", 0, "query: fail the query after this many seconds (0 = none)")
	traceOut := flag.String("trace-out", "", "query: trace the query end to end and write a Chrome trace_event file here (load in Perfetto or chrome://tracing)")

	verbose := flag.Bool("v", false, "verbose diagnostics on stderr")
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	switch {
	case *query != "":
		runQuery(*query, serve.QueryRequest{
			Hosts:          *hosts,
			WindowsPerHost: *windows,
			Seed:           *seed,
			WarmupMS:       *warmupMS,
			MeasureMS:      *measureMS,
			Fidelity:       *fidMode,
			Tol:            *tol,
			AuditRate:      *auditRate,
			EarlyStop:      *estop,
			Warm:           *warm,
			NoCache:        *noCache,
			RangeHosts:     *rangeHosts,
			TimeoutSec:     *timeoutSec,
			Points:         *csv,
			Trace:          *traceOut != "",
		}, *csv, *traceOut, *verbose)
	case *join != "":
		runWorker(*join, *name, *threads, *poll, obsFlags, *verbose)
	default:
		runCoordinator(*addr, *cacheDir, *warmDir, *cacheMaxMB, *leaseTimeout,
			*staleAfter, *localWorkers, *threads, *poll, obsFlags, *verbose)
	}
}

// signalCtx is cancelled on SIGINT/SIGTERM.
func signalCtx() context.Context {
	ctx, stop := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-ch
		stop()
	}()
	return ctx
}

func runCoordinator(addr, cacheDir, warmDir string, cacheMaxMB int,
	leaseTimeout, staleAfter time.Duration, localWorkers, threads int,
	poll time.Duration, obsFlags *obs.Flags, verbose bool) {

	store, err := runcache.Open(cacheDir)
	if err != nil {
		fatalf("%v", err)
	}
	var warmStore *runcache.Store
	if warmDir != "" {
		if warmStore, err = runcache.Open(warmDir); err != nil {
			fatalf("%v", err)
		}
	}
	if cacheMaxMB > 0 {
		budget := int64(cacheMaxMB) << 20
		for _, s := range []*runcache.Store{store, warmStore} {
			if s == nil {
				continue
			}
			if removed, freed, perr := s.Prune(budget); perr != nil {
				fmt.Fprintf(os.Stderr, "hicserve: pruning %s: %v\n", s.Dir(), perr)
			} else if removed > 0 && verbose {
				fmt.Fprintf(os.Stderr, "pruned %d entries (%.1f MB) from %s\n",
					removed, float64(freed)/(1<<20), s.Dir())
			}
		}
	}

	// The control plane shares the coordinator's mux (serve.Options.Obs →
	// obs.(*Server).Register); -listen on the same address would try to
	// bind the port twice, so fold it into the embedded plane instead.
	if obsFlags.Listen == addr {
		fmt.Fprintf(os.Stderr, "hicserve: -listen %s is the coordinator address; control plane shares its port\n", addr)
		obsFlags.Listen = ""
	}
	obsSrv, err := obsFlags.Start(os.Stderr)
	if err != nil {
		fatalf("%v", err)
	}
	if obsSrv == nil {
		// Always embed a control plane: its endpoints cost nothing until
		// scraped and the query API advances /progress per merged range.
		obsSrv = obs.NewServer(obs.Options{Warn: os.Stderr})
		obs.Set(obsSrv)
	}
	defer obsSrv.Close()
	obsSrv.AddSource(store) // the coordinator reports the warm store, labeled

	var logw *os.File
	if verbose {
		logw = os.Stderr
	}
	srv, err := serve.NewServer(serve.Options{
		Store:        store,
		WarmStore:    warmStore,
		LeaseTimeout: leaseTimeout,
		StaleAfter:   staleAfter,
		Obs:          obsSrv,
		Log:          logw,
	})
	if err != nil {
		fatalf("%v", err)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatalf("listening on %s: %v", addr, err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln) //nolint:errcheck // Serve returns on Close
	fmt.Fprintf(os.Stderr, "hicserve: coordinator on http://%s (query %s, cache %s)\n",
		ln.Addr(), serve.QueryPath, store.Dir())

	ctx := signalCtx()
	base := "http://" + coordinatorHostPort(ln.Addr().String())
	workerDone := make(chan error, localWorkers)
	for i := 0; i < localWorkers; i++ {
		w := serve.NewWorker(base, serve.WorkerOptions{
			Name:    fmt.Sprintf("local%d", i),
			Threads: splitThreads(threads, localWorkers, i),
			Poll:    poll,
			Log:     logw,
		})
		go func() { workerDone <- w.Run(ctx) }()
	}

	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "hicserve: shutting down")
	for i := 0; i < localWorkers; i++ {
		<-workerDone
	}
	httpSrv.Close()
}

// coordinatorHostPort rewrites a wildcard listen address into one a
// local worker can dial.
func coordinatorHostPort(bound string) string {
	host, port, err := net.SplitHostPort(bound)
	if err != nil {
		return bound
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		return net.JoinHostPort("127.0.0.1", port)
	}
	return bound
}

// splitThreads divides a -threads budget across n local workers so
// co-resident pools share the cores instead of oversubscribing them
// (0 stays 0: every pool sizes itself to GOMAXPROCS).
func splitThreads(total, n, i int) int {
	if total <= 0 || n <= 1 {
		return total
	}
	per := total / n
	if i < total%n {
		per++
	}
	if per < 1 {
		per = 1
	}
	return per
}

func runWorker(base, name string, threads int, poll time.Duration,
	obsFlags *obs.Flags, verbose bool) {

	var logw *os.File
	if verbose {
		logw = os.Stderr
	}
	w := serve.NewWorker(base, serve.WorkerOptions{
		Name:    name,
		Threads: threads,
		Poll:    poll,
		Log:     logw,
	})
	// A worker's own control plane (-listen) exposes its live
	// lease/idle state, runner pool, and cache-client counters under
	// hic_serve_worker_* — inspectable without a coordinator scrape.
	obsSrv, err := obsFlags.Start(os.Stderr)
	if err != nil {
		fatalf("%v", err)
	}
	if obsSrv != nil {
		obsSrv.AddSource(w)
		defer obsSrv.Close()
	}
	fmt.Fprintf(os.Stderr, "hicserve: worker joining %s\n", base)
	if err := w.Run(signalCtx()); err != nil && err != context.Canceled {
		fatalf("worker: %v", err)
	}
	st := w.Stats()
	fmt.Fprintf(os.Stderr, "hicserve: worker %s done: %d leases, %d hosts, %d resident routers\n",
		w.ID(), st.Leases, st.Hosts, st.Routers)
}

func runQuery(base string, q serve.QueryRequest, csv bool, traceOut string, verbose bool) {
	out := bufio.NewWriter(os.Stdout)
	if csv {
		fmt.Fprint(out, cluster.CSVHeader())
	}
	c := serve.NewClient(base, nil)
	res, err := c.Query(signalCtx(), q, func(e serve.QueryEvent) error {
		switch e.Kind {
		case serve.KindPoint:
			if csv && e.Point != nil {
				_, werr := fmt.Fprint(out, cluster.CSVRow(*e.Point))
				return werr
			}
		case serve.KindRange:
			if verbose && e.Range != nil {
				fmt.Fprintf(os.Stderr, "range %d [%d, %d) by %s: %d/%d\n",
					e.Range.RangeID, e.Range.Lo, e.Range.Hi, e.Range.Worker, e.Range.Done, e.Range.Total)
			}
		}
		return nil
	})
	if err != nil {
		fatalf("%v", err)
	}
	if csv {
		if err := out.Flush(); err != nil {
			fatalf("%v", err)
		}
	} else {
		writeResult(out, res)
	}
	if traceOut != "" {
		if err := writeTrace(traceOut, res); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "hicserve: trace %s: %d spans -> %s\n",
			res.TraceID, len(res.Trace), traceOut)
		if p := res.Phases; p != nil {
			fmt.Fprintf(os.Stderr, "hicserve: phases: queue %.1f ms, prefetch %.1f ms, execute %.1f ms, merge %.1f ms\n",
				p.QueueMS, p.PrefetchMS, p.ExecuteMS, p.MergeMS)
		}
	}
	fmt.Fprintf(os.Stderr, "hicserve: %d points from %d ranges on %d workers in %.0f ms (%.0f hosts/s), hash %s\n",
		res.Points, res.Ranges, res.Workers, res.ElapsedMS, res.HostsPerSec, res.AggregateHash)
}

// writeTrace exports a traced query's spans as a Chrome trace_event
// file: one track per worker plus the coordinator's lifecycle track.
func writeTrace(path string, res *serve.QueryResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeWallSpans(f, "hicserve query "+res.TraceID, res.Trace); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeResult(out *bufio.Writer, res *serve.QueryResult) {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		fatalf("%v", err)
	}
	if err := out.Flush(); err != nil {
		fatalf("%v", err)
	}
}
