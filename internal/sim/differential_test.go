package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"dbproc/internal/cache"
	"dbproc/internal/costmodel"
)

// differentialCases is the number of seeded randomized configurations the
// differential oracle sweeps. Each case draws its own parameter point, so
// widening this widens coverage of the (N, f, N1, N2, SF, Z, model,
// R2-update-mix) space.
const differentialCases = 50

// randomDifferentialConfig draws one valid, test-sized parameter point.
// Populations stay small enough that 50 cases x 5 worlds build in seconds,
// but every structural degree of freedom the strategies disagree on —
// band widths, sharing, R2 updates, both models, zero P1 or P2
// populations — is in range.
func randomDifferentialConfig(rng *rand.Rand, seed int64) Config {
	p := costmodel.Default()
	p.N = float64(400 + rng.Intn(2200))
	// Aim the C_f band at 1..40 tuples; F must stay in [0, 1].
	p.F = float64(1+rng.Intn(40)) / p.N
	p.F2 = []float64{0.0005, 0.005, 0.02, 0.1}[rng.Intn(4)]
	p.N1 = float64(rng.Intn(7))
	p.N2 = float64(rng.Intn(7))
	if p.N1+p.N2 == 0 {
		p.N1 = 1
	}
	p.L = float64(1 + rng.Intn(5))
	p.SF = []float64{0, 0.25, 0.5, 1}[rng.Intn(4)]
	p.Z = 0.05 + 0.9*rng.Float64()

	cfg := Config{
		Params: p,
		Model:  costmodel.Model1,
		Seed:   seed,
	}
	if rng.Intn(2) == 1 {
		cfg.Model = costmodel.Model2
	}
	if rng.Intn(3) == 0 {
		cfg.R2UpdateFraction = 0.3 + 0.5*rng.Float64()
	}
	return cfg
}

// tupleMultiset canonicalizes a query result for set comparison: the
// multiset of tuple byte-images, independent of delivery order.
func tupleMultiset(tuples [][]byte) map[string]int {
	m := make(map[string]int, len(tuples))
	for _, t := range tuples {
		m[string(t)]++
	}
	return m
}

// diffMultisets describes how got differs from want: tuples missing from
// got and tuples it invented, with multiplicities.
func diffMultisets(want, got map[string]int) string {
	var missing, extra []string
	for t, n := range want {
		if d := n - got[t]; d > 0 {
			missing = append(missing, fmt.Sprintf("%q x%d", t, d))
		}
	}
	for t, n := range got {
		if d := n - want[t]; d > 0 {
			extra = append(extra, fmt.Sprintf("%q x%d", t, d))
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return fmt.Sprintf("missing %d tuple image(s) %v; extra %d tuple image(s) %v",
		len(missing), missing, len(extra), extra)
}

// TestDifferentialOracle drives Cache-and-Invalidate, Update Cache (AVM),
// Update Cache (RVM) and Adaptive through identical randomized op
// sequences in differentialCases seeded configurations, and after every
// query op requires each strategy's tuple set to equal a fresh brute-force
// recompute (an Always Recompute world on the same base-table history) —
// the strategy-equivalence invariant the paper's comparison rests on.
//
// The check runs after every query, so the first divergence reported is
// the minimal op prefix that produces it; the failure message prints that
// prefix verbatim for replay.
//
// A case runs about 200 ops: long enough that Adaptive drops procedures to
// bypass and retries caching, where a bypassed entry, which held no
// i-locks, can be stale yet still read as usable. The full sweep fails
// unless both happen.
func TestDifferentialOracle(t *testing.T) {
	cases := differentialCases
	if testing.Short() {
		cases = 10
	}
	tested := []costmodel.Strategy{
		costmodel.CacheInvalidate,
		costmodel.UpdateCacheAVM,
		costmodel.UpdateCacheRVM,
	}
	bypasses, retries := 0, 0
	for c := 0; c < cases; c++ {
		c := c
		t.Run(fmt.Sprintf("case%02d", c), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			cfg := randomDifferentialConfig(rng, int64(c))

			// The oracle world and every strategy world share Config.Seed, so
			// their base relations and workload generators evolve in lockstep:
			// each externally driven Update draws the same tuples in every
			// world, and queries draw nothing.
			oracleCfg := cfg
			oracleCfg.Strategy = costmodel.AlwaysRecompute
			oracle := Build(oracleCfg)
			var worlds []*World
			for _, s := range tested {
				wc := cfg
				wc.Strategy = s
				worlds = append(worlds, Build(wc))
			}
			ac := cfg
			ac.Adaptive, ac.Ledger = true, cache.NewLedger()
			worlds = append(worlds, Build(ac))
			defer func() {
				b, r := bypassesAndRetries(ac.Ledger.Events())
				bypasses += b
				retries += r
			}()

			ids := oracle.ProcIDs()
			var prefix []string
			nOps := 190 + rng.Intn(20)
			for op := 0; op < nOps; op++ {
				if rng.Intn(100) < 45 {
					prefix = append(prefix, "update()")
					oracle.Update()
					for _, w := range worlds {
						w.Update()
					}
					continue
				}
				id := ids[rng.Intn(len(ids))]
				prefix = append(prefix, fmt.Sprintf("access(%d)", id))
				want := tupleMultiset(oracle.Access(id))
				for _, w := range worlds {
					got := tupleMultiset(w.Access(id))
					if len(got) == len(want) {
						equal := true
						for tup, n := range want {
							if got[tup] != n {
								equal = false
								break
							}
						}
						if equal {
							continue
						}
					}
					t.Fatalf("config %+v\n%v diverged from fresh recompute at op %d: %s\nminimal diverging op prefix:\n  %s",
						cfg, w.Strategy().Name(), op, diffMultisets(want, got),
						strings.Join(prefix, "\n  "))
				}
			}
		})
	}
	t.Logf("adaptive: %d bypassed accesses, %d retries", bypasses, retries)
	if cases == differentialCases && (bypasses == 0 || retries == 0) {
		t.Fatalf("adaptive bypassed %d accesses and retried caching %d times over the sweep: the oracle never judged the bypass policy", bypasses, retries)
	}
}

// bypassesAndRetries counts an Adaptive ledger's bypassed accesses and its
// retries: the computed accesses that end a run of bypassed ones.
func bypassesAndRetries(events []cache.LedgerEvent) (bypasses, retries int) {
	last := map[int]string{}
	for _, ev := range events {
		switch ev.Kind {
		case cache.KindBypass:
			bypasses++
		case cache.KindComputed:
			if last[ev.Entry] == cache.KindBypass {
				retries++
			}
		case cache.KindHit:
		default:
			continue
		}
		last[ev.Entry] = ev.Kind
	}
	return bypasses, retries
}
