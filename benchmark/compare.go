package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"dbproc/benchmark/spec"
)

// hostFacts identify where a result file was measured; -compare refuses
// files whose facts differ, because wall-clock numbers of two hosts
// share no scale.
type hostFacts struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
}

func thisHost() hostFacts {
	kernel := "unknown"
	if out, err := exec.Command("uname", "-sr").Output(); err == nil {
		kernel = strings.TrimSpace(string(out))
	}
	return hostFacts{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Kernel: kernel}
}

// resultFile is what -json writes: the runs of one or more invocations
// on one host. Each invocation appends, so ten invocations with ten
// seeds give -compare the medians and quartiles it needs.
type resultFile struct {
	Host  hostFacts `json:"host"`
	Quick bool      `json:"quick"`
	Runs  []*result `json:"runs"`
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// appendResults adds this invocation's runs to the file at path,
// creating it if need be. Runs of another host, or a mix of quick and
// full runs, do not belong in one file.
func appendResults(path string, quick bool, runs []*result) error {
	host := thisHost()
	f, err := readResultFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		f = &resultFile{Host: host, Quick: quick}
	case err != nil:
		return err
	case f.Host != host:
		return fmt.Errorf("%s was measured on another host (%+v); start a new file", path, f.Host)
	case f.Quick != quick:
		return fmt.Errorf("%s mixes -quick and full runs; start a new file", path)
	}
	f.Runs = append(f.Runs, runs...)
	return writeJSON(path, f)
}

// values collects metric name's value over the file's untraced runs of
// one workload.
func (f *resultFile) values(workload, name string) []float64 {
	var vs []float64
	for _, r := range f.Runs {
		if v, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Traced {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

// verdict judges b against a for one metric: how much worse b's median
// is as a share of a's (negative when better), and what that means
// against the bound. When the run-to-run spread of either side exceeds
// the bound the medians cannot resolve a change of that size, so the
// verdict is "unresolved" — unless every run of b beats every run of a.
func verdict(d metricDef, a, b []float64) (worse float64, word string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, "no baseline"
	}
	worse = (mb - ma) / ma
	if d.Better == "higher" {
		worse = -worse
	}
	lo, hi := a, b // for "lower is better": b wins outright when max(b) < min(a)
	if d.Better == "higher" {
		lo, hi = b, a
	}
	outright := true
	for _, x := range hi {
		for _, y := range lo {
			outright = outright && x < y
		}
	}
	switch {
	case (spread(a) > d.Bound || spread(b) > d.Bound) && !outright:
		return worse, "unresolved"
	case worse > d.Bound:
		return worse, "REGRESSED"
	case worse < -d.Bound:
		return worse, "improved"
	}
	return worse, "within bound"
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the change against the bound and the verdict.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	if a.Quick || b.Quick {
		return fmt.Errorf("refusing to compare -quick runs: they are too short to measure anything")
	}
	if a.Host != b.Host {
		return fmt.Errorf("refusing to compare across hosts:\n  %s: %+v\n  %s: %+v", pathA, a.Host, pathB, b.Host)
	}
	fmt.Fprintf(w, "host: %d cores, GOMAXPROCS %d, %s, %s\n", a.Host.Cores, a.Host.GOMAXPROCS, a.Host.Go, a.Host.Kernel)
	fmt.Fprintf(w, "%-15s %-19s %14s %14s %8s %6s  %s\n", "workload", "metric", "median a", "median b", "worse", "bound", "verdict (runs a/b, spread a/b)")
	for _, wl := range spec.Workloads {
		for _, d := range endToEnd {
			va, vb := a.values(wl.Name, d.Name), b.values(wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-15s %-19s missing from one file (%d/%d runs)\n", wl.Name, d.Name, len(va), len(vb))
				continue
			}
			worse, word := verdict(d, va, vb)
			fmt.Fprintf(w, "%-15s %-19s %14.6g %14.6g %+7.1f%% %5.0f%%  %s (%d/%d, %.1f%%/%.1f%%)\n",
				wl.Name, d.Name, median(va), median(vb), 100*worse, 100*d.Bound, word,
				len(va), len(vb), 100*spread(va), 100*spread(vb))
		}
	}
	return nil
}
