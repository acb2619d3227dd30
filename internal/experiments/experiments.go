// Package experiments regenerates every table and figure of the paper's
// evaluation (sections 5 and 7): cost-versus-update-probability curves,
// sharing-factor comparisons, winner-region maps, closeness maps, the cost
// component tables, and the quantitative claims of section 8. Each
// experiment produces the analytic series from package costmodel and,
// optionally, measured validation points from package sim.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"dbproc/internal/costmodel"
	"dbproc/internal/parallel"
	"dbproc/internal/sim"
)

// Options control experiment execution.
type Options struct {
	// Sim adds measured points from the executable system next to the
	// analytic curves. Simulated sweeps subsample to SimPoints points.
	Sim bool
	// SimPoints caps the simulated points per curve (0 means all).
	SimPoints int
	// SimSeed drives the simulated workloads.
	SimSeed int64
	// Scale divides N, N1, N2, K and Q for faster simulated sweeps while
	// preserving shape (0 or 1 means full scale).
	Scale float64
	// Workers bounds the simulation cells run concurrently; zero or
	// negative means one worker per CPU. Results are reduced in canonical
	// cell order, so any worker count renders byte-identical tables.
	Workers int
	// Scenarios restricts the hostile-workload scenario benchmark
	// (ScenarioBench) to a subset of the catalog; empty sweeps it all.
	// The polite baseline is always included.
	Scenarios []string
}

// Table is one rendered result: a titled grid of cells.
type Table struct {
	ID     string
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// Experiment regenerates one paper table or figure.
type Experiment struct {
	// ID is the handle used on the command line, e.g. "fig05".
	ID string
	// Title describes what the paper's figure shows.
	Title string
	// Run produces the tables. ctx cancels the simulation fan-out between
	// cells; a cancelled run renders its remaining simulated columns as
	// "-" placeholders.
	Run func(ctx context.Context, opt Options) []*Table
}

// All returns every experiment, figures in paper order followed by the
// component tables and the claims check.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool { return orderKey(out[i].ID) < orderKey(out[j].ID) })
	return out
}

// orderKey sorts "figNN" numerically first, then tables, then claims.
func orderKey(id string) string {
	switch {
	case strings.HasPrefix(id, "fig"):
		return "0" + id
	case strings.HasPrefix(id, "tbl"):
		return "1" + id
	default:
		return "2" + id
	}
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists the experiment ids in presentation order.
func IDs() []string {
	all := All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.ID
	}
	return out
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// fmtMs renders a cost in milliseconds compactly.
func fmtMs(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	switch {
	case v >= 10000:
		return fmt.Sprintf("%.0f", v)
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.1f", v)
	}
}

// scaled derives simulation parameters from the analytic ones, dividing
// the population sizes and operation counts by opt.Scale to keep sweeps
// fast while preserving per-query shape.
func scaled(p costmodel.Params, opt Options) costmodel.Params {
	s := opt.Scale
	if s <= 1 {
		return p
	}
	q := p
	q.N = math.Max(1000, math.Round(p.N/s))
	q.N1 = math.Round(p.N1 / s)
	q.N2 = math.Round(p.N2 / s)
	if q.N1+q.N2 == 0 {
		q.N1 = 1
	}
	q.K = math.Max(0, math.Round(p.K/s))
	q.Q = math.Max(4, math.Round(p.Q/s))
	return q
}

// BenchParams is the paper's defaults under opt.Scale: the parameter
// point ObsBench measures, and the one external harnesses replay a cell
// at (procstat's verdict test regenerates its ledger evidence here).
func BenchParams(opt Options) costmodel.Params {
	return scaled(costmodel.Default(), opt)
}

// simCells is the parallel sweep engine's entry point: it measures every
// config across opt.Workers workers — each cell building and running its
// own self-contained sim.World — and returns the results in input order.
// That input-order reduction is the determinism contract: tables are
// filled from the returned slice, never from completion order, so
// Workers=1 and Workers=N render byte-identical output.
func simCells(ctx context.Context, opt Options, cfgs []sim.Config) ([]sim.Result, error) {
	return parallel.Map(ctx, parallel.Workers(opt.Workers), len(cfgs), func(ctx context.Context, i int) (sim.Result, error) {
		return sim.Run(cfgs[i]), nil
	})
}
