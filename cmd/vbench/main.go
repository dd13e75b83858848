// Command vbench regenerates the tables and figures of the paper's
// evaluation on the simulated testbed.
//
// Usage:
//
//	vbench -list             # show experiment ids
//	vbench -exp fig5         # regenerate one experiment
//	vbench -exp all          # regenerate everything (slow)
//	vbench -exp fig7 -quick  # trimmed sweeps
//	vbench -exp perf -json   # write BENCH_perf.json instead of the table
//	vbench -exp trace -json  # causal-tracing overhead, HB audit verdict and
//	                         # critical-path breakdown (BENCH_trace.json)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"mpichv/internal/apps"
	"mpichv/internal/bench"
	"mpichv/internal/deploy"
)

func main() {
	// The soak experiment deploys real worker processes; when vbench is
	// used as the worker executable, MaybeServe takes over.
	deploy.MaybeServe(func(name string) (deploy.App, bool) {
		a, ok := apps.Get(name)
		return deploy.App(a), ok
	})
	var (
		exp     = flag.String("exp", "", "experiment id, or \"all\"")
		quick   = flag.Bool("quick", false, "trim sweeps for a fast run")
		list    = flag.Bool("list", false, "list experiments")
		jsonOut = flag.Bool("json", false, "write BENCH_<id>.json instead of printing the table")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "vbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "vbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "vbench: -memprofile: %v\n", err)
			}
		}()
	}
	if *list || *exp == "" {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			fmt.Fprintln(os.Stderr, "\nvbench: pick one with -exp <id> (or -exp all)")
			os.Exit(2)
		}
		return
	}

	run := func(e bench.Experiment) {
		fmt.Printf("=== %s: %s\n", e.ID, e.Title)
		start := time.Now()
		if *jsonOut {
			// The structured twin of the table: one run of the sweep,
			// marshalled, never both (sweeps are too slow to run twice).
			if e.Data == nil {
				fmt.Fprintf(os.Stderr, "vbench: %s has no structured data export\n", e.ID)
				os.Exit(1)
			}
			data, err := e.Data(*quick)
			if err != nil {
				fmt.Fprintf(os.Stderr, "vbench: %s: %v\n", e.ID, err)
				os.Exit(1)
			}
			enc, err := json.MarshalIndent(data, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "vbench: %s: marshal: %v\n", e.ID, err)
				os.Exit(1)
			}
			path := fmt.Sprintf("BENCH_%s.json", e.ID)
			if err := os.WriteFile(path, append(enc, '\n'), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "vbench: %s: %v\n", e.ID, err)
				os.Exit(1)
			}
			fmt.Printf("--- %s → %s in %v\n\n", e.ID, path, time.Since(start).Round(time.Millisecond))
			return
		}
		if err := e.Run(os.Stdout, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "vbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("--- %s done in %v\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, e := range bench.Experiments() {
			run(e)
		}
		return
	}
	e, ok := bench.ByID(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "vbench: unknown experiment %q (try -list)\n", *exp)
		os.Exit(2)
	}
	run(e)
}
