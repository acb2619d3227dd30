package main

import (
	"context"
	"fmt"
	"sort"

	"dbproc"
	"dbproc/benchmark/spec"
	"dbproc/internal/wire"
)

// servedIdentityRun runs a whole 1-client world of the target's
// workload at params p on the target's server and returns its sealed
// statistics. ledger attaches the cache-efficacy ledger, whose bytes
// come back in the statistics — which is why this world is small: the
// ledger rides in one frame, and wire.MaxFrame is 1 MiB.
func servedIdentityRun(ctx context.Context, t *target, p dbproc.Params, ledger bool) (*wire.WorldStatsResult, error) {
	open := t.wl.Open(t.seed, 1, false)
	open.Params = p
	open.Ledger = ledger
	opened, err := t.ctl.WorldOpen(ctx, open)
	if err != nil {
		return nil, err
	}
	defer t.ctl.WorldClose(ctx, opened.World)
	for {
		st, err := t.ctl.WorldNext(ctx, opened.World, 0)
		if err != nil {
			return nil, err
		}
		if st.Done {
			break
		}
	}
	return t.ctl.WorldStats(ctx, opened.World)
}

// checkNeverStale is the soundness rule of a result cache: after the
// run, with whatever mix of valid and invalidated entries the replaces
// left behind, every procedure must return exactly the rows a direct
// retrieve of its predicate returns.
func checkNeverStale(ctx context.Context, t *target, res *result) {
	for i, pred := range t.qdb.Predicates {
		cached, err := t.ctl.Exec(ctx, "execute "+spec.ProcName(i))
		if err != nil {
			res.fail("execute %s: %v", spec.ProcName(i), err)
			return
		}
		direct, err := t.ctl.Exec(ctx, pred)
		if err != nil {
			res.fail("%s: %v", pred, err)
			return
		}
		if !sameRows(cached.Rows, direct.Rows) {
			res.fail("stale cache: execute %s returned %d rows that differ from the %d rows of %q",
				spec.ProcName(i), len(cached.Rows), len(direct.Rows), pred)
		}
	}
}

// sameRows compares two results as multisets of rows.
func sameRows(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(rows [][]int64) []string {
		ks := make([]string, len(rows))
		for i, r := range rows {
			ks[i] = fmt.Sprint(r)
		}
		sort.Strings(ks)
		return ks
	}
	ka, kb := key(a), key(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}
