// Command xcbench regenerates the paper's evaluation: every table and
// figure of §5 plus the §4.5 spawn-cost observation and the ablation
// studies. Without arguments it runs everything. It is also the perf
// front door: parallel scenario sweeps over rates and seeds, and pprof
// profiles of the run. Experiment cells, vCPU lanes and sweep
// replications run on worker pools min(GOMAXPROCS, items) wide; set
// GOMAXPROCS to change the width. No output depends on it.
//
// Usage:
//
//	xcbench -list
//	xcbench -exp table1
//	xcbench -exp fig3,fig8 -markdown
//	xcbench -exp table1 -json
//	xcbench -sweep 100000,400000 -seeds 5 -app memcached
//	xcbench -exp fig8 -cpuprofile fig8.pprof
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"xcontainers/internal/bench"
	"xcontainers/xc"
)

// errUsage marks a flag-parse failure the FlagSet already reported.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "xcbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("xcbench", flag.ContinueOnError)
	list := fs.Bool("list", false, "list available experiments and exit")
	exp := fs.String("exp", "", "comma-separated experiment IDs (default: all)")
	markdown := fs.Bool("markdown", false, "emit GitHub-flavoured markdown")
	csv := fs.Bool("csv", false, "emit CSV (for external plotting)")
	jsonOut := fs.Bool("json", false, "emit one JSON array of report documents")

	sweep := fs.String("sweep", "", "comma-separated offered rates (req/s) for a parallel traffic sweep")
	seeds := fs.Int("seeds", 3, "sweep: replications per point (seeds 1..n)")
	app := fs.String("app", "memcached", "sweep: application model (Table 1 name)")
	rtName := fs.String("runtime", "xcontainer", "sweep: architecture: "+xc.KindUsage())
	duration := fs.Float64("duration", 0.5, "sweep: horizon per replication in virtual seconds")

	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile of the run to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "xcbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush the final allocation state
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "xcbench: memprofile:", err)
			}
		}()
	}

	switch {
	case *list:
		for _, e := range bench.Experiments() {
			fmt.Fprintf(stdout, "%-10s %s\n", e.ID, e.Title)
		}
		return nil
	case *sweep != "":
		return runSweep(stdout, sweepOptions{
			rates: *sweep, seeds: *seeds,
			app: *app, runtime: *rtName, duration: *duration, jsonOut: *jsonOut,
		})
	}

	var ids []string
	if *exp != "" {
		ids = strings.Split(*exp, ",")
	} else {
		for _, e := range bench.Experiments() {
			ids = append(ids, e.ID)
		}
	}

	var firstErr error
	reports := []*bench.Report{} // marshals as [] even when every run fails
	for _, id := range ids {
		e, ok := bench.Lookup(strings.TrimSpace(id))
		if !ok {
			firstErr = errors.Join(firstErr, fmt.Errorf("unknown experiment %q (try -list)", id))
			continue
		}
		rep, err := e.Run()
		if err != nil {
			firstErr = errors.Join(firstErr, fmt.Errorf("%s: %w", e.ID, err))
			continue
		}
		switch {
		case *jsonOut:
			reports = append(reports, rep)
		case *markdown:
			fmt.Fprint(stdout, rep.Markdown())
		case *csv:
			fmt.Fprint(stdout, rep.CSV())
		default:
			fmt.Fprint(stdout, rep)
		}
	}
	if *jsonOut {
		blob, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(blob))
	}
	return firstErr
}

type sweepOptions struct {
	rates        string
	seeds        int
	app, runtime string
	duration     float64
	jsonOut      bool
}

// runSweep drives xc.Sweep from the flag surface: rates × seeds on a
// GOMAXPROCS-wide worker pool.
func runSweep(stdout io.Writer, o sweepOptions) error {
	kind, err := xc.ParseKind(o.runtime)
	if err != nil {
		return err
	}
	rates, err := xc.ParseRates(o.rates)
	if err != nil {
		return err
	}
	seedList, err := xc.SeedRange(o.seeds)
	if err != nil {
		return err
	}
	rep, err := xc.Sweep(xc.SweepSpec{
		Kind:     kind,
		Workload: xc.App(o.app),
		Traffic:  xc.Traffic().Duration(o.duration),
		Rates:    rates,
		Seeds:    seedList,
	})
	if err != nil {
		return err
	}
	if o.jsonOut {
		blob, err := rep.JSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(blob))
		return nil
	}
	fmt.Fprint(stdout, rep)
	return nil
}
