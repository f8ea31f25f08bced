// Command hiccluster regenerates Figure 1: the fleet-wide scatter of
// access-link utilization versus host drop rate across many simulated
// hosts with fleet-distribution workload mixes.
//
//	hiccluster -hosts 200
//	hiccluster -hosts 300 -csv > fig1.csv
//	hiccluster -hosts 100000 -csv -v > fig1.csv   # streaming, bounded RSS
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"hic/internal/cluster"
	"hic/internal/fidelity"
	"hic/internal/obs"
	"hic/internal/observatory"
	"hic/internal/runcache"
	"hic/internal/runner"
	"hic/internal/sim"
)

// openOut opens an output path for the observatory exports; "-" means
// stdout. The returned flush both flushes the buffer and closes the
// file.
func openOut(path string) (io.Writer, func() error, error) {
	if path == "-" {
		w := bufio.NewWriter(os.Stdout)
		return w, w.Flush, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	w := bufio.NewWriter(f)
	return w, func() error {
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

func main() {
	hosts := flag.Int("hosts", 200, "simulated hosts in the fleet")
	windows := flag.Int("windows", 1, "measurement bins per host (10-minute-bin analogue)")
	seed := flag.Uint64("seed", 1, "fleet seed")
	measureMS := flag.Int("measure-ms", 12, "per-host measurement window (ms)")
	warmupMS := flag.Int("warmup-ms", 0, "override per-host warmup window (ms)")
	csv := flag.Bool("csv", false, "emit per-host CSV instead of the scatter (streams: RSS stays bounded at any fleet size)")
	useCache := flag.Bool("cache", false, "memoize per-host results in the content-addressed run cache (single-window fleets only)")
	cacheDir := flag.String("cache-dir", runcache.DefaultDir, "run-cache directory (with -cache)")
	cacheURL := flag.String("cache-url", "", "share a hicserve coordinator's run cache over HTTP instead of -cache-dir (implies -cache)")
	cacheMaxMB := flag.Int("cache-max-mb", 0, "prune the run cache and warm store to this size at startup, oldest entries first (0 = unbounded)")
	noDedup := flag.Bool("no-dedup", false, "without -cache, disable the in-memory dedup of byte-identical hosts (never changes results; for benchmarking)")
	progress := flag.Bool("progress", true, "report progress, rate, and ETA on stderr")
	verbose := flag.Bool("v", false, "print cache and dedup statistics on stderr")
	incidentsOut := flag.String("incidents-out", "", "attach the sim-time observatory and append per-host congestion episodes as JSONL here ('-' = stdout; forces full DES)")
	timelinesOut := flag.String("timelines-out", "", "with the observatory attached, also export each host's retained signal timeline as JSONL here")
	observeEvery := flag.Int("observe-every-us", 100, "observatory sampling interval in sim µs")
	fid := fidelity.RegisterFlags(flag.CommandLine, fidelity.ModeDES)
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	cfg := cluster.DefaultConfig()
	cfg.Hosts = *hosts
	cfg.WindowsPerHost = *windows
	cfg.Seed = *seed
	cfg.Measure = sim.Duration(*measureMS) * sim.Millisecond
	if *warmupMS > 0 {
		cfg.Warmup = sim.Duration(*warmupMS) * sim.Millisecond
	}
	cfg.NoDedup = *noDedup
	cfg.Log = os.Stderr

	var store *runcache.Store
	if *cacheURL != "" {
		store = runcache.OpenRemote(*cacheURL)
		cfg.Cache = store
	} else if *useCache {
		var err error
		if store, err = runcache.Open(*cacheDir); err != nil {
			fmt.Fprintf(os.Stderr, "hiccluster: %v\n", err)
			os.Exit(1)
		}
		cfg.Cache = store
	}
	router, err := fid.Router(store, cluster.SeedPool(cfg), nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hiccluster: %v\n", err)
		os.Exit(1)
	}
	if router != nil {
		cfg.Exec = router
	}
	var warmStore *runcache.Store
	if router != nil {
		warmStore = router.WarmStore()
	}
	if *cacheMaxMB > 0 {
		budget := int64(*cacheMaxMB) << 20
		for _, s := range []*runcache.Store{store, warmStore} {
			if s == nil {
				continue
			}
			if removed, freed, perr := s.Prune(budget); perr != nil {
				fmt.Fprintf(os.Stderr, "hiccluster: pruning %s: %v\n", s.Dir(), perr)
			} else if removed > 0 && *verbose {
				fmt.Fprintf(os.Stderr, "pruned %d entries (%.1f MB) from %s\n",
					removed, float64(freed)/(1<<20), s.Dir())
			}
		}
	}

	var collector *observatory.Collector
	var flushers []func() error
	if *incidentsOut != "" || *timelinesOut != "" {
		ocfg := observatory.DefaultConfig()
		ocfg.SampleEvery = sim.Duration(*observeEvery) * sim.Microsecond
		collector = observatory.NewCollector(ocfg)
		var incEnc *json.Encoder
		if *incidentsOut != "" {
			w, flush, err := openOut(*incidentsOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hiccluster: %v\n", err)
				os.Exit(1)
			}
			incEnc = json.NewEncoder(w)
			flushers = append(flushers, flush)
		}
		var tlw io.Writer
		if *timelinesOut != "" {
			w, flush, err := openOut(*timelinesOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hiccluster: %v\n", err)
				os.Exit(1)
			}
			tlw = w
			flushers = append(flushers, flush)
		}
		collector.OnReport(func(hostIdx int, cell string, rep *observatory.HostReport) error {
			if incEnc != nil {
				for i := range rep.Episodes {
					if err := incEnc.Encode(&rep.Episodes[i]); err != nil {
						return err
					}
				}
			}
			if tlw != nil {
				return rep.WriteTimeline(tlw, hostIdx)
			}
			return nil
		})
		cfg.Observatory = collector
	}

	if srv, err := obsFlags.Start(os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "hiccluster: %v\n", err)
		os.Exit(1)
	} else if srv != nil {
		defer srv.Close()
		srv.AddSource(runner.Shared())
		if store != nil {
			srv.AddSource(store)
		}
		if router != nil {
			srv.AddSource(router)
		}
		if warmStore != nil {
			srv.AddSource(warmStore)
		}
		if collector != nil {
			srv.AddSource(collector)
		}
	}
	var lines *obs.Lines // nil-safe Stop
	if *progress {
		pool := runner.Shared()
		lines = obs.NewLines(os.Stderr, obs.Default(), "fleet", "hosts", time.Second, func() string {
			ps := pool.Stats()
			note := fmt.Sprintf("slots %db/%di", ps.Busy, ps.Idle+ps.Draining)
			if router != nil {
				// Live anchor accounting: cold-start cost (and what
				// warm start saved) visible mid-run.
				c := router.Counters()
				note += fmt.Sprintf("; anchors %d run/%d loaded", c.AnchorRuns, c.AnchorLoaded)
			}
			if store != nil {
				note += "; cache " + store.Summary()
			}
			if collector != nil {
				note += "; " + collector.Note()
			}
			return note
		})
		cfg.Sink = lines
	}

	var stats cluster.Stats
	if *csv {
		// Streaming path: every point is written as it arrives, so memory
		// stays bounded by the worker count regardless of fleet size.
		out := bufio.NewWriter(os.Stdout)
		fmt.Fprint(out, cluster.CSVHeader())
		stats, err = cluster.RunStream(cfg, func(p cluster.Point) error {
			_, werr := fmt.Fprint(out, cluster.CSVRow(p))
			return werr
		})
		lines.Stop()
		if ferr := out.Flush(); err == nil {
			err = ferr
		}
	} else {
		var points []cluster.Point
		stats, err = cluster.RunStream(cfg, func(p cluster.Point) error {
			points = append(points, p)
			return nil
		})
		lines.Stop()
		if err == nil {
			fmt.Print(cluster.Scatter(points, 72, 20))
			fmt.Printf("\nhosts=%d  mean utilization=%.2f  dropping=%d  dropping-below-60%%-util=%d\n",
				stats.Hosts, stats.MeanUtilization, stats.DroppingHosts, stats.LowUtilDropping)
			fmt.Printf("utilization–drop correlation (Pearson): %.2f\n", stats.Pearson)
			fmt.Printf("drop rate: mean=%.4f p50=%.4f p99=%.4f max=%.4f\n",
				stats.MeanDropRate, stats.DropRateP50, stats.DropRateP99, stats.MaxDropRate)
			fmt.Println("\npaper claims: correlation positive; drops present even at low utilization.")
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hiccluster: %v\n", err)
		os.Exit(1)
	}
	for _, flush := range flushers {
		if ferr := flush(); ferr != nil {
			fmt.Fprintf(os.Stderr, "hiccluster: %v\n", ferr)
			os.Exit(1)
		}
	}
	if collector != nil {
		collector.WriteReport(os.Stderr, *verbose)
	}

	if *verbose {
		// Simulated counts every DES execution including calibration
		// anchors; hosts served by the fluid model appear only in
		// FluidRouted. Reconstruct the host count for the summary line.
		total := stats.Simulated - stats.AnchorRuns + stats.FluidRouted + stats.Collapsed
		fmt.Fprintf(os.Stderr, "fleet execution: %d single-window hosts, %d simulated, %d deduplicated",
			total, stats.Simulated, stats.Collapsed)
		if total > 0 {
			fmt.Fprintf(os.Stderr, " (%.1f%% saved)", 100*float64(stats.Collapsed)/float64(total))
		}
		fmt.Fprintln(os.Stderr)
		if stats.CacheSkipped > 0 {
			fmt.Fprintf(os.Stderr, "fleet execution: %d multi-window hosts bypassed the run cache\n", stats.CacheSkipped)
		}
		if router != nil {
			fmt.Fprintf(os.Stderr, "fidelity: %d fluid-routed, %d early-stopped, %d anchor runs",
				stats.FluidRouted, stats.EarlyStopped, stats.AnchorRuns)
			if stats.Audited > 0 {
				fmt.Fprintf(os.Stderr, "; audited %d max-err %.4f (%d over tol %.3f)",
					stats.Audited, stats.AuditMaxErr, stats.AuditOverTol, router.Tol())
			}
			fmt.Fprintln(os.Stderr)
			if stats.AnchorLoaded+stats.AnchorPersisted+stats.WarmStarted+stats.WarmCheckpoints > 0 {
				fmt.Fprintf(os.Stderr, "warm start: %d anchors loaded, %d persisted, %d hosts warm-started, %d checkpoints captured",
					stats.AnchorLoaded, stats.AnchorPersisted, stats.WarmStarted, stats.WarmCheckpoints)
				if stats.WarmAudited > 0 {
					fmt.Fprintf(os.Stderr, "; warm-audited %d max-err %.4f (%d over tol %.3f)",
						stats.WarmAudited, stats.WarmAuditMaxErr, stats.WarmAuditOverTol, router.Tol())
				}
				fmt.Fprintln(os.Stderr)
			}
		}
		if store != nil {
			fmt.Fprintf(os.Stderr, "run cache: %s\n", store.Summary())
		}
		ps := runner.Shared().Stats()
		fmt.Fprintf(os.Stderr, "worker pool: %d slots (%d busy, %d idle, %d draining), %d tasks started, %d done\n",
			ps.Workers, ps.Busy, ps.Idle, ps.Draining, ps.TasksStarted, ps.TasksDone)
	}
}
