package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"dbproc/internal/cache"
	"dbproc/internal/costmodel"
)

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

// ledgerReport renders each ledger run's diagnosis: its dominant
// bottleneck, cost breakdown, invalidation and survival figures, wasted
// work, net benefit and wasted-work leaderboard.
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
		if e.WastedMs <= 0 || (topK > 0 && shown >= topK) {
			break
		}
		if shown == 0 {
			fmt.Fprintf(w, "  wasted-work leaderboard (most wasted first):\n")
		}
		fmt.Fprintf(w, "    proc %-5d %2d wasted generation(s), %8.1f ms; %d hit(s), net %+.1f ms\n",
			e.Entry, e.WastedGenerations, e.WastedMs, e.Hits, e.NetBenefitMs)
		shown++
	}
}

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
