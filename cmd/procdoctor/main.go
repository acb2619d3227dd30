// Command procdoctor is the causal diagnosis reader: it turns the
// artifacts the engine's diagnosis layer emits — cache-efficacy ledgers,
// flight-recorder dumps, span traces — into a verdict a person can act
// on. Where procstat renders raw timelines and procmon watches a live
// process, procdoctor answers "what dominated this run and which
// strategy should have won?":
//
//   - per-strategy dominant bottleneck (recompute vs hit service vs
//     maintenance vs invalidation) from the ledger's event-kind sums,
//   - the wasted-work leaderboard: entries whose cached generations died
//     without serving a hit, plus the false-invalidation rate,
//   - top blockers: who held the locks everyone else waited on, from
//     the flight dump's blame-annotated lock.acquire events,
//   - a strategy-winner verdict per (model, clients, seed) group from
//     ledger evidence alone — the winner by the ledgered runs' simulated
//     totals (TestLedgerVerdictMatchesSimulatedWinner), cross-checkable
//     against the analytic model with procadvisor.
//
// Usage:
//
//	procsim -clients 8 -critpath -ledger ledger.jsonl -flight flight.jsonl
//	procdoctor -ledger ledger.jsonl -flight flight.jsonl
//
// See docs/DIAGNOSIS.md for the artifact formats and the decomposition
// semantics behind each section.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"dbproc/internal/cache"
	"dbproc/internal/costmodel"
	"dbproc/internal/obs"
	"dbproc/internal/telemetry"
)

func main() {
	ledgerPath := flag.String("ledger", "", "cache-efficacy ledger (JSONL) written by procsim -ledger")
	flightPath := flag.String("flight", "", "flight-recorder dump (JSONL) written by procsim -flight or an auto-dump")
	tracePath := flag.String("trace", "", "span trace (JSONL) written by procsim -trace")
	topK := flag.Int("topk", 5, "rows per leaderboard")
	flag.Parse()

	if *ledgerPath == "" && *flightPath == "" && *tracePath == "" {
		fmt.Fprintln(os.Stderr, "procdoctor: nothing to diagnose; pass -ledger, -flight and/or -trace")
		flag.Usage()
		os.Exit(2)
	}

	out := os.Stdout
	if *ledgerPath != "" {
		runs := mustReadLedger(*ledgerPath)
		ledgerReport(out, runs, *topK)
		verdictReport(out, ledgerVerdicts(runs))
	}
	if *flightPath != "" {
		f := mustOpen(*flightPath)
		d, err := telemetry.ReadDump(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		flightReport(out, d, *topK)
	}
	if *tracePath != "" {
		f := mustOpen(*tracePath)
		tr, err := obs.ReadTrace(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		traceReport(out, tr, *topK)
	}
}

func mustOpen(path string) *os.File {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	return f
}

func mustReadLedger(path string) []cache.LedgerRun {
	f := mustOpen(path)
	defer f.Close()
	runs, err := cache.ReadLedger(f)
	if err != nil {
		fatal(err)
	}
	if len(runs) == 0 {
		fatal(fmt.Errorf("%s: no ledger sections", path))
	}
	return runs
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "procdoctor: %v\n", err)
	os.Exit(1)
}

// ---------------------------------------------------------------------------
// Ledger: dominant bottleneck, wasted work, false invalidations

// bottleneck names the largest event-kind cost sum of a ledger run: the
// component a tuner should attack first.
func bottleneck(st cache.LedgerStats) (name string, ms float64) {
	name, ms = "recompute", st.ComputeMs
	for _, c := range []struct {
		name string
		ms   float64
	}{
		{"hit service", st.HitMs},
		{"maintenance", st.MaintainMs},
		{"invalidation", st.InvalMs},
		{"cache bypass", st.BypassMs},
	} {
		if c.ms > ms {
			name, ms = c.name, c.ms
		}
	}
	return name, ms
}

func ledgerReport(w io.Writer, runs []cache.LedgerRun, topK int) {
	for i, run := range runs {
		st := run.Stats()
		m := run.Meta
		fmt.Fprintf(w, "== run %d: %s, %s, %d client(s), seed %d ==\n",
			i+1, m.Strategy, costmodel.Model(m.Model), m.Clients, m.Seed)
		fmt.Fprintf(w, "  %d queries, %d updates; %d lifecycle events costing %.1f ms (run simulated total %.1f ms)\n",
			m.Queries, m.Updates, len(run.Events), st.TotalMs, m.TotalMs)
		if len(run.Events) == 0 {
			fmt.Fprintf(w, "  no events: strategy keeps no cache (nothing to diagnose)\n\n")
			continue
		}
		name, ms := bottleneck(st)
		share := 0.0
		if st.TotalMs > 0 {
			share = 100 * ms / st.TotalMs
		}
		fmt.Fprintf(w, "  dominant bottleneck: %s (%.1f ms, %.0f%% of event cost)\n", name, ms, share)
		fmt.Fprintf(w, "  breakdown: recompute %.1f  hit %.1f  maintain %.1f  invalidate %.1f  bypass %.1f\n",
			st.ComputeMs, st.HitMs, st.MaintainMs, st.InvalMs, st.BypassMs)
		if st.Invalidations > 0 {
			fmt.Fprintf(w, "  invalidations: %d (false: %d of %d comparable recomputes, rate %.1f%%)\n",
				st.Invalidations, st.FalseInvalidations, st.ComparableRecomputes, 100*st.FalseInvalidationRate)
			var parts []string
			for b, n := range st.Survival {
				if n > 0 {
					parts = append(parts, fmt.Sprintf("%s:%d", cache.SurvivalBuckets[b], n))
				}
			}
			if len(parts) > 0 {
				fmt.Fprintf(w, "  generation survival (hits before invalidation): %s\n", strings.Join(parts, "  "))
			}
		}
		fmt.Fprintf(w, "  wasted work: %d generation(s) invalidated unread, %.1f ms recomputed for nothing\n",
			st.WastedGenerations, st.WastedMs)
		fmt.Fprintf(w, "  net benefit vs always-recompute baselines: %+.1f ms\n", st.NetBenefitMs)
		wastedLeaderboard(w, st, topK)
		fmt.Fprintln(w)
	}
}

func wastedLeaderboard(w io.Writer, st cache.LedgerStats, topK int) {
	entries := append([]cache.EntryStats(nil), st.Entries...)
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].WastedMs != entries[j].WastedMs {
			return entries[i].WastedMs > entries[j].WastedMs
		}
		return entries[i].Entry < entries[j].Entry
	})
	shown := 0
	for _, e := range entries {
		if e.WastedMs <= 0 || shown >= topK {
			break
		}
		if shown == 0 {
			fmt.Fprintf(w, "  wasted-work leaderboard (top %d):\n", topK)
		}
		fmt.Fprintf(w, "    proc %-5d %2d wasted generation(s), %8.1f ms; %d hit(s), net %+.1f ms\n",
			e.Entry, e.WastedGenerations, e.WastedMs, e.Hits, e.NetBenefitMs)
		shown++
	}
}

// ---------------------------------------------------------------------------
// Strategy-winner verdict

// verdict is one (model, clients, seed) group's strategy ranking by
// ledger-event cost. Caching strategies only: the ledger records cache
// lifecycle work, so Always Recompute (which keeps no cache) has no
// evidence to rank.
type verdict struct {
	Model   int
	Clients int
	Seed    int64
	// Ranked is sorted cheapest-first by ledger event cost per query.
	Ranked []verdictRow
}

type verdictRow struct {
	Strategy  string
	TotalMs   float64 // ledger event cost
	MsPerWork float64 // ledger event cost per query
}

// Winner is the cheapest caching strategy by ledger evidence.
func (v verdict) Winner() string {
	if len(v.Ranked) == 0 {
		return ""
	}
	return v.Ranked[0].Strategy
}

// cachingStrategies is the set the verdict ranks: the ledger-recording
// strategies the paper's section 8 decision weighs against each other.
var cachingStrategies = map[string]bool{
	costmodel.CacheInvalidate.String(): true,
	costmodel.UpdateCacheAVM.String():  true,
	costmodel.UpdateCacheRVM.String():  true,
}

// ledgerVerdicts groups ledger runs by (model, clients, seed) and ranks
// the caching strategies within each group by total ledger-event cost.
// The base-relation update cost the ledger does not see is identical
// across strategies for the same workload, so the event-cost ranking
// reproduces the simulated-total ranking.
func ledgerVerdicts(runs []cache.LedgerRun) []verdict {
	type key struct {
		model, clients int
		seed           int64
	}
	groups := map[key]*verdict{}
	var order []key
	for _, run := range runs {
		m := run.Meta
		if !cachingStrategies[m.Strategy] {
			continue
		}
		k := key{m.Model, m.Clients, m.Seed}
		v, ok := groups[k]
		if !ok {
			v = &verdict{Model: m.Model, Clients: m.Clients, Seed: m.Seed}
			groups[k] = v
			order = append(order, k)
		}
		st := run.Stats()
		row := verdictRow{Strategy: m.Strategy, TotalMs: st.TotalMs}
		if m.Queries > 0 {
			row.MsPerWork = st.TotalMs / float64(m.Queries)
		}
		v.Ranked = append(v.Ranked, row)
	}
	out := make([]verdict, 0, len(order))
	for _, k := range order {
		v := groups[k]
		sort.SliceStable(v.Ranked, func(i, j int) bool { return v.Ranked[i].TotalMs < v.Ranked[j].TotalMs })
		out = append(out, *v)
	}
	return out
}

func verdictReport(w io.Writer, verdicts []verdict) {
	for _, v := range verdicts {
		if len(v.Ranked) < 2 {
			continue // a single strategy is not a comparison
		}
		fmt.Fprintf(w, "== strategy verdict: %s, %d client(s), seed %d ==\n",
			costmodel.Model(v.Model), v.Clients, v.Seed)
		for i, r := range v.Ranked {
			marker := ""
			if i == 0 {
				marker = "  <- winner by ledger evidence"
			}
			fmt.Fprintf(w, "  %-22s %10.1f ms event cost  %8.1f ms/query%s\n",
				r.Strategy, r.TotalMs, r.MsPerWork, marker)
		}
		fmt.Fprintf(w, "  confirm the parameter regime with procadvisor (analytic model).\n\n")
	}
}

// ---------------------------------------------------------------------------
// Flight dump: top blockers, detector firings

// blockerAgg aggregates blame-annotated lock.acquire events by
// (lock, holder) pair.
type blockerAgg struct {
	Lock      string
	Holder    string // the event Detail: "held by session N (op)"
	Waits     int
	WaitNs    int64
	MaxWaitNs int64
}

// topBlockers folds a dump's lock.acquire events into per-(lock, holder)
// wait totals, sorted by total wait descending.
func topBlockers(d *telemetry.Dump) []blockerAgg {
	type key struct{ lock, holder string }
	agg := map[key]*blockerAgg{}
	for _, ev := range d.Events {
		if ev.Kind != telemetry.EvLockAcquire || ev.WaitNs <= 0 {
			continue
		}
		k := key{ev.Name, ev.Detail}
		b, ok := agg[k]
		if !ok {
			b = &blockerAgg{Lock: ev.Name, Holder: ev.Detail}
			agg[k] = b
		}
		b.Waits++
		b.WaitNs += ev.WaitNs
		if ev.WaitNs > b.MaxWaitNs {
			b.MaxWaitNs = ev.WaitNs
		}
	}
	out := make([]blockerAgg, 0, len(agg))
	for _, b := range agg {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WaitNs != out[j].WaitNs {
			return out[i].WaitNs > out[j].WaitNs
		}
		if out[i].Lock != out[j].Lock {
			return out[i].Lock < out[j].Lock
		}
		return out[i].Holder < out[j].Holder
	})
	return out
}

func flightReport(w io.Writer, d *telemetry.Dump, topK int) {
	fmt.Fprintf(w, "== flight dump ==\n")
	for _, h := range d.Headers {
		fmt.Fprintf(w, "  dump reason %q: %d events retained, %d dropped\n", h.Reason, h.Events, h.Dropped)
	}
	for _, ev := range d.Events {
		switch ev.Kind {
		case telemetry.EvDetector:
			fmt.Fprintf(w, "  detector fired: %s — %s\n", ev.Name, ev.Detail)
		case telemetry.EvWatchdog, telemetry.EvViolation, telemetry.EvFault:
			fmt.Fprintf(w, "  fault event: %s %s %s\n", ev.Kind, ev.Name, ev.Detail)
		}
	}
	blockers := topBlockers(d)
	if len(blockers) == 0 {
		fmt.Fprintf(w, "  no lock waits recorded: the run was contention-free\n\n")
		return
	}
	// Under the MVCC read path the only waits left fall into two causally
	// distinct classes: queueing behind an update's declared 2PL
	// footprint, or behind the post-commit version-chain sweep. The split
	// tells the reader which one a slow run is actually paying for.
	var fpNs, gcNs int64
	for _, b := range blockers {
		if waitClass(b.Lock) == waitClassGC {
			gcNs += b.WaitNs
		} else {
			fpNs += b.WaitNs
		}
	}
	fmt.Fprintf(w, "  wait split: %.3f ms waited on update footprints, %.3f ms on version-chain GC\n",
		float64(fpNs)/1e6, float64(gcNs)/1e6)
	if topK > len(blockers) {
		topK = len(blockers)
	}
	fmt.Fprintf(w, "  top blockers by wall-clock wait (top %d of %d):\n", topK, len(blockers))
	for _, b := range blockers[:topK] {
		holder := b.Holder
		if holder == "" {
			holder = "(holder unknown: blame attribution was off)"
		}
		fmt.Fprintf(w, "    %-14s %s: %d wait(s), %.3f ms total, max %.3f ms [%s]\n",
			b.Lock, holder, b.Waits, float64(b.WaitNs)/1e6, float64(b.MaxWaitNs)/1e6,
			waitClass(b.Lock))
	}
	fmt.Fprintln(w)
}

// Wait classes for blame reporting.
const (
	waitClassFootprint = "waited on update footprint"
	waitClassGC        = "waited on version-chain GC"
)

// waitClass classifies a lock name for blame output: rel: names are an
// update's declared 2PL footprint; the mvcc: namespace (the
// version-chain GC lock, engine.GCLock) is MVCC housekeeping that runs
// after an update's footprint is already released.
func waitClass(lock string) string {
	if strings.HasPrefix(lock, "mvcc:") {
		return waitClassGC
	}
	return waitClassFootprint
}

// ---------------------------------------------------------------------------
// Trace: per-run span totals and blame-edge counts

func traceReport(w io.Writer, tr *obs.Trace, topK int) {
	fmt.Fprintf(w, "== span trace ==\n")
	type runAgg struct {
		run     string
		spans   int
		durMs   float64
		blame   int
		byName  map[string]float64
		ordered []string
	}
	var runs []*runAgg
	idx := map[string]*runAgg{}
	for _, sp := range tr.Spans {
		a, ok := idx[sp.Run]
		if !ok {
			a = &runAgg{run: sp.Run, byName: map[string]float64{}}
			idx[sp.Run] = a
			runs = append(runs, a)
		}
		a.spans++
		a.durMs += sp.DurMs
		if _, seen := a.byName[sp.Name]; !seen {
			a.ordered = append(a.ordered, sp.Name)
		}
		a.byName[sp.Name] += sp.DurMs
		if _, blamed := sp.Attrs["blame_sessions"]; blamed {
			a.blame++
		}
	}
	for _, a := range runs {
		fmt.Fprintf(w, "  run %q: %d spans, %.1f ms simulated, %d span(s) carrying lock-wait blame edges\n",
			a.run, a.spans, a.durMs, a.blame)
		sort.SliceStable(a.ordered, func(i, j int) bool { return a.byName[a.ordered[i]] > a.byName[a.ordered[j]] })
		k := topK
		if k > len(a.ordered) {
			k = len(a.ordered)
		}
		for _, name := range a.ordered[:k] {
			fmt.Fprintf(w, "    %-20s %10.1f ms\n", name, a.byName[name])
		}
	}
	fmt.Fprintln(w)
}
