// Command benchmark is the repository's wall-clock benchmark (README.md
// in this directory). It builds cmd/procserved, runs it as a child on a
// loopback port, and is the single load-generating process: two
// closed-loop clients with zero think time.
//
//	benchmark/run.sh --workload hot-read --seed 1 --seconds 20 --trace 0
//	benchmark/run.sh -seed 1                  # every workload, untraced and traced
//	benchmark/run.sh -quick                   # smoke: 1/50 of the time, checks on
//	benchmark/run.sh -compare a.json b.json   # judge two result files
//
// With one -workload the last line of standard output is the result
// object {"correct","attempted","failed","metrics"}: the end-to-end
// metrics under -trace 0, the per-layer metrics under -trace 1. The
// exit status is non-zero when an output check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dbproc/benchmark/spec"
)

func main() {
	root := flag.String("root", "", "repository root (default: the parent of the directory holding this module's go.mod, found from the working directory)")
	name := flag.String("workload", "", "run one workload and end with its result line (default: all)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.String("trace", "", "0: untraced run, end-to-end metrics; 1: traced run and ladder, per-layer metrics (default: both)")
	quick := flag.Bool("quick", false, "smoke run: 1/50 of the measured time, one set-up, small identity worlds; output checks stay on")
	jsonOut := flag.String("json", "", "append this invocation's results to a result file (for -compare)")
	traceDir := flag.String("trace-dir", "", "directory for trace-<workload>.json (default: .bench_build/traces under the root)")
	compare := flag.Bool("compare", false, "compare two result files given as arguments, and exit")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal("%v", err)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal("unexpected arguments %q", flag.Args())
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		fatal("-trace takes 0 or 1")
	}
	selected := spec.Workloads
	if *name != "" {
		wl, ok := spec.ByName(*name)
		if !ok {
			fatal("unknown workload %q", *name)
		}
		selected = []spec.Workload{wl}
	}
	if *quick {
		*seconds /= 50
	}

	rootDir, err := findRoot(*root)
	if err != nil {
		fatal("%v", err)
	}
	build := filepath.Join(rootDir, ".bench_build")
	o := options{
		Bin:      filepath.Join(build, "bin", "procserved"),
		Ladder:   filepath.Join(build, "bin", "ladder"),
		Seed:     *seed,
		Seconds:  *seconds,
		Quick:    *quick,
		TraceDir: *traceDir,
	}
	if o.TraceDir == "" {
		o.TraceDir = filepath.Join(build, "traces")
	}
	if err := goBuild(rootDir, "./cmd/procserved", o.Bin); err != nil {
		fatal("%v", err)
	}

	ctx := context.Background()
	var results []*result
	ok := true
	for _, wl := range selected {
		var untraced *result
		if *trace != "1" {
			res, err := measure(ctx, wl, o)
			if err != nil {
				fatal("%v", err)
			}
			printResult(res, endToEnd)
			results = append(results, res)
			untraced = res
			ok = ok && res.Correct
		}
		if *trace != "0" {
			// The ladder is built here, not up front: a lower layer whose
			// signature changed costs the ladder rows, never an untraced run.
			if err := goBuild(filepath.Join(rootDir, "benchmark"), "./ladder", o.Ladder); err != nil {
				fatal("%v", err)
			}
			res, err := measureTraced(ctx, wl, o, untraced)
			if err != nil {
				fatal("%v", err)
			}
			printResult(res, perLayer())
			results = append(results, res)
			ok = ok && res.Correct
		}
	}
	if *jsonOut != "" {
		if err := appendResults(*jsonOut, *quick, results); err != nil {
			fatal("%v", err)
		}
	}
	if *name != "" && *trace != "" {
		defs := endToEnd
		if *trace == "1" {
			defs = perLayer()
		}
		fmt.Println(resultLine(results[len(results)-1], defs))
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// findRoot locates the repository root: the given directory, or the
// nearest ancestor of the working directory that holds both the root
// module and this one.
func findRoot(given string) (string, error) {
	isRoot := func(dir string) bool {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err != nil || !strings.HasPrefix(string(mod), "module dbproc\n") {
			return false
		}
		_, err = os.Stat(filepath.Join(dir, "cmd", "procserved"))
		return err == nil
	}
	if given != "" {
		abs, err := filepath.Abs(given)
		if err != nil {
			return "", err
		}
		if !isRoot(abs) {
			return "", fmt.Errorf("%s is not the dbproc repository root (no go.mod of module dbproc with cmd/procserved)", abs)
		}
		return abs, nil
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isRoot(dir) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no dbproc repository root above the working directory; pass -root")
		}
		dir = parent
	}
}

// printResult writes one line per metric, "workload metric value unit
// n", in the order of defs, then the notes and failed checks.
func printResult(res *result, defs []metricDef) {
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			fmt.Printf("%s %s missing\n", res.Workload, d.Name)
			continue
		}
		fmt.Printf("%s %s %.6g %s %d\n", res.Workload, d.Name, v.Value, v.Unit, v.N)
	}
	if !res.Traced {
		ratio := 0.0
		if res.Attempted > 0 {
			ratio = float64(res.Failed) / float64(res.Attempted)
		}
		fmt.Printf("%s fail_ratio %g ratio %d\n", res.Workload, ratio, res.Attempted)
	}
	for _, n := range res.Notes {
		fmt.Printf("%s note: %s\n", res.Workload, n)
	}
	for _, c := range res.Checks {
		fmt.Printf("%s CHECK FAILED: %s\n", res.Workload, c)
	}
}

// resultLine is the object a caller of one workload reads from the last
// line of standard output: the listed metrics, every digit measured.
func resultLine(res *result, defs []metricDef) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	for _, d := range defs {
		if v, ok := res.Metrics[d.Name]; ok {
			line.Metrics[d.Name] = metric{v.Value, v.Unit}
		}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fatal("encode result: %v", err) // NaN or Inf in a metric: a bug here
	}
	return string(out)
}
