// Command procbench regenerates the paper's tables and figures.
//
// Usage:
//
//	procbench                  # every figure and table, analytic only
//	procbench -figure fig05    # one figure
//	procbench -sim             # add measured points from the simulator
//	procbench -sim -scale 10   # simulate at 1/10 population scale
//	procbench -sim -workers 4  # fan simulation cells over 4 workers
//	procbench -list            # list experiment ids
//
// Simulated sweeps fan their (figure point × seed × strategy) cells out
// across -workers workers; the reduction is deterministic, so any worker
// count prints byte-identical tables (see docs/PARALLEL.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"dbproc/internal/experiments"
	"dbproc/internal/workload"
)

func main() {
	figure := flag.String("figure", "", "experiment id to run (default: all)")
	chart := flag.Bool("chart", false, "draw ASCII charts under curve tables")
	list := flag.Bool("list", false, "list experiment ids and exit")
	simFlag := flag.Bool("sim", false, "add simulated validation points")
	simPoints := flag.Int("sim-points", 0, "max simulated points per curve (0 = all)")
	scale := flag.Float64("scale", 1, "divide populations and op counts by this for simulation")
	seed := flag.Int64("seed", 1, "simulation seed")
	workers := flag.Int("workers", 0, "concurrent simulation cells (0 = one per CPU); output is identical for any value")
	obsJSON := flag.String("obs-json", "", "write the per-strategy observability benchmark (BENCH_obs.json) to this file and exit")
	scenariosJSON := flag.String("scenarios-json", "", "write the hostile-workload scenario benchmark (BENCH_scenarios.json) to this file and exit")
	scenarioFilter := flag.String("scenario-filter", "", "comma-separated scenario names to restrict -scenarios-json to (default: full catalog)")
	flag.Parse()

	// Ctrl-C stops claiming new simulation cells; in-flight cells finish
	// and the run exits after the current experiment.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s  %s\n", e.ID, e.Title)
		}
		return
	}

	opt := experiments.Options{
		Sim:       *simFlag,
		SimPoints: *simPoints,
		SimSeed:   *seed,
		Scale:     *scale,
		Workers:   *workers,
	}
	if *scenarioFilter != "" {
		for _, name := range strings.Split(*scenarioFilter, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, ok := workload.ByName(name); !ok && name != experiments.PoliteScenario {
				fmt.Fprintf(os.Stderr, "procbench: unknown scenario %q; catalog: %s\n",
					name, strings.Join(workload.Names(), ", "))
				os.Exit(1)
			}
			opt.Scenarios = append(opt.Scenarios, name)
		}
	}

	writeJSON := func(path string, v any, desc string) {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "procbench: %v\n", err)
			os.Exit(1)
		}
		if err := experiments.WriteReport(f, v); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "procbench: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "procbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s written to %s\n", desc, path)
	}

	if *scenariosJSON != "" {
		rep := experiments.ScenarioBench(ctx, opt)
		flipped := 0
		for _, v := range rep.Verdicts {
			if v.Flipped {
				flipped++
			}
		}
		writeJSON(*scenariosJSON, rep,
			fmt.Sprintf("scenario benchmark (%d scenarios, %d rows, %d verdict(s) flipped from polite)",
				len(rep.Scenarios), len(rep.Rows), flipped))
		return
	}

	if *obsJSON != "" {
		rep := experiments.ObsBench(ctx, opt)
		writeJSON(*obsJSON, rep, fmt.Sprintf("observability benchmark (%d rows)", len(rep.Rows)))
		return
	}

	show := func(tb *experiments.Table) {
		tb.Render(os.Stdout)
		if *chart {
			tb.Chart(os.Stdout)
		}
	}
	if *figure != "" {
		e, ok := experiments.Get(*figure)
		if !ok {
			fmt.Fprintf(os.Stderr, "procbench: unknown experiment %q; try -list\n", *figure)
			os.Exit(1)
		}
		for _, tb := range e.Run(ctx, opt) {
			show(tb)
		}
		return
	}
	for _, e := range experiments.All() {
		for _, tb := range e.Run(ctx, opt) {
			show(tb)
		}
	}
}
