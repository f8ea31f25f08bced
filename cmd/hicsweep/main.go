// Command hicsweep runs a declarative parameter sweep from a JSON spec.
//
// Example spec (sweep the fig3 and fig6 axes jointly):
//
//	{
//	  "base": {"Seed": 1, "Threads": 12, "Senders": 40,
//	           "RxRegionBytes": 12582912, "IOMMU": true,
//	           "Hugepages": true, "CC": "swift"},
//	  "axes": [
//	    {"param": "threads", "values": [8, 12, 16]},
//	    {"param": "antagonists", "values": [0, 8, 15]}
//	  ]
//	}
//
//	hicsweep -spec sweep.json
//	hicsweep -spec sweep.json -csv > grid.csv
//	hicsweep -params           # list sweepable parameters
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"hic/internal/core"
	"hic/internal/fidelity"
	"hic/internal/obs"
	"hic/internal/observatory"
	"hic/internal/runcache"
	"hic/internal/runner"
	"hic/internal/sim"
	"hic/internal/sweep"
)

func main() {
	specPath := flag.String("spec", "", "JSON sweep specification")
	csv := flag.Bool("csv", false, "emit CSV instead of a table")
	listParams := flag.Bool("params", false, "list sweepable parameter names and exit")
	measureMS := flag.Int("measure-ms", 0, "override measurement window (ms)")
	warmupMS := flag.Int("warmup-ms", 0, "override warmup window (ms)")
	telemetryOut := flag.String("telemetry-out", "", "run each point with span telemetry and write one JSONL summary line per grid point to this file")
	spanRate := flag.Float64("span-rate", 0.01, "span sampling rate per grid point (with -telemetry-out)")
	incidentsOut := flag.String("incidents-out", "", "run each point with the sim-time observatory and write one JSONL incident-report line per grid point to this file (forces full DES)")
	observeEvery := flag.Int("observe-every-us", 100, "observatory sampling interval in sim µs (with -incidents-out)")
	useCache := flag.Bool("cache", false, "memoize per-point results in the content-addressed run cache (ignored with -telemetry-out)")
	cacheDir := flag.String("cache-dir", runcache.DefaultDir, "run-cache directory (with -cache)")
	cacheURL := flag.String("cache-url", "", "share a hicserve coordinator's run cache over HTTP instead of -cache-dir (implies -cache)")
	cacheMaxMB := flag.Int("cache-max-mb", 0, "prune the run cache and warm store to this size at startup, oldest entries first (0 = unbounded)")
	verbose := flag.Bool("v", false, "print detailed run-cache counters on stderr (with -cache)")
	fid := fidelity.RegisterFlags(flag.CommandLine, fidelity.ModeDES)
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *listParams {
		fmt.Println(strings.Join(sweep.KnownParams(), "\n"))
		return
	}
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "usage: hicsweep -spec <file.json> [-csv]")
		os.Exit(2)
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hicsweep: %v\n", err)
		os.Exit(1)
	}
	var spec sweep.Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "hicsweep: parsing %s: %v\n", *specPath, err)
		os.Exit(1)
	}
	if *measureMS > 0 {
		spec.Base.Measure = sim.Duration(*measureMS) * sim.Millisecond
	}
	if *warmupMS > 0 {
		spec.Base.Warmup = sim.Duration(*warmupMS) * sim.Millisecond
	}

	if *telemetryOut != "" && *incidentsOut != "" {
		fmt.Fprintln(os.Stderr, "hicsweep: -telemetry-out and -incidents-out are mutually exclusive (each instruments every point its own way)")
		os.Exit(2)
	}

	var store *runcache.Store
	if *telemetryOut == "" && *incidentsOut == "" {
		if *cacheURL != "" {
			store = runcache.OpenRemote(*cacheURL)
		} else if *useCache {
			if store, err = runcache.Open(*cacheDir); err != nil {
				fmt.Fprintf(os.Stderr, "hicsweep: %v\n", err)
				os.Exit(1)
			}
		}
	}

	router, err := fid.Router(store, nil, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hicsweep: %v\n", err)
		os.Exit(1)
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
				fmt.Fprintf(os.Stderr, "hicsweep: pruning %s: %v\n", s.Dir(), perr)
			} else if removed > 0 && *verbose {
				fmt.Fprintf(os.Stderr, "pruned %d entries (%.1f MB) from %s\n",
					removed, float64(freed)/(1<<20), s.Dir())
			}
		}
	}

	if srv, err := obsFlags.Start(os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "hicsweep: %v\n", err)
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
	}

	var rows []sweep.Row
	if *incidentsOut != "" {
		// Observatory sweeps always simulate in full: episodes are a
		// per-run byproduct neither the fluid solver nor the run cache
		// produces.
		if router != nil {
			fmt.Fprintln(os.Stderr, "hicsweep: observatory always simulates; fidelity routing disabled for this run")
			router = nil
		}
		ocfg := observatory.DefaultConfig()
		ocfg.SampleEvery = sim.Duration(*observeEvery) * sim.Microsecond
		rows, err = sweep.RunProbed(spec, nil, sweep.Observatory(ocfg))
	} else if *telemetryOut != "" {
		// Telemetry sweeps always simulate: spans are a per-run byproduct
		// the result cache does not store. The router still decides which
		// points the fluid solver would serve — those carry no spans and
		// are skipped (and counted) by the JSONL exporter instead of being
		// written as empty records.
		rows, err = sweep.RunProbed(spec, routerExec(router), sweep.Telemetry(*spanRate))
	} else {
		rows, err = sweep.Run(spec, routerExec(router), store)
	}
	if router != nil {
		defer func() {
			c := router.Counters()
			fmt.Fprintf(os.Stderr, "fidelity: %d fluid, %d DES (%d early-stopped), %d anchors, %d reused",
				c.FluidRouted, c.DESRouted, c.EarlyStopped, c.AnchorRuns, c.AnchorReused)
			if c.Audited > 0 {
				fmt.Fprintf(os.Stderr, "; audited %d max-err %.4f (%d over tol)",
					c.Audited, c.AuditMaxErr, c.AuditOverTol)
			}
			fmt.Fprintln(os.Stderr)
			if c.AnchorLoaded+c.AnchorPersisted+c.WarmStarted+c.WarmCheckpoints > 0 {
				fmt.Fprintf(os.Stderr, "warm start: %d anchors loaded, %d persisted, %d warm-started, %d checkpoints",
					c.AnchorLoaded, c.AnchorPersisted, c.WarmStarted, c.WarmCheckpoints)
				if c.WarmAudited > 0 {
					fmt.Fprintf(os.Stderr, "; warm-audited %d max-err %.4f (%d over tol)",
						c.WarmAudited, c.WarmAuditMaxErr, c.WarmAuditOverTol)
				}
				fmt.Fprintln(os.Stderr)
			}
		}()
	}
	if store != nil {
		defer func() {
			fmt.Fprintf(os.Stderr, "run cache: %s\n", store.Summary())
			if *verbose {
				st := store.Stats()
				lookups := st.Hits + st.Misses + st.Collapses
				fmt.Fprintf(os.Stderr, "run cache: %d lookups (%d hits, %d misses, %d singleflight collapses); %d simulations avoided\n",
					lookups, st.Hits, st.Misses, st.Collapses, st.Hits+st.Collapses)
			}
		}()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hicsweep: %v\n", err)
		os.Exit(1)
	}
	if *incidentsOut != "" {
		jsonl, err := sweep.IncidentsJSONL(spec, rows)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hicsweep: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*incidentsOut, []byte(jsonl), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "hicsweep: %v\n", err)
			os.Exit(1)
		}
		episodes := 0
		for _, r := range rows {
			if r.Incidents != nil {
				episodes += len(r.Incidents.Episodes)
			}
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d points, %d episodes)\n", *incidentsOut, len(rows), episodes)
	}
	if *telemetryOut != "" {
		jsonl, err := sweep.TelemetryJSONL(spec, rows)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hicsweep: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*telemetryOut, []byte(jsonl), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "hicsweep: %v\n", err)
			os.Exit(1)
		}
		skipped := 0
		for _, r := range rows {
			if r.TelemetrySkippedFluid {
				skipped++
			}
		}
		if skipped > 0 {
			fmt.Fprintf(os.Stderr, "wrote %s (%d points, %d fluid-routed points skipped)\n",
				*telemetryOut, len(rows)-skipped, skipped)
		} else {
			fmt.Fprintf(os.Stderr, "wrote %s (%d points)\n", *telemetryOut, len(rows))
		}
	}
	if *csv {
		fmt.Print(sweep.CSV(spec, rows))
	} else {
		fmt.Print(sweep.Table(spec, rows))
	}
}

// routerExec lowers a possibly-nil *fidelity.Router to a core.Executor
// without boxing a typed nil into the interface.
func routerExec(r *fidelity.Router) core.Executor {
	if r == nil {
		return nil
	}
	return r
}
