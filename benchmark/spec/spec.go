// Package spec defines the benchmark's workloads: the shapes that are
// fixed, and what the seed draws. The harness and the ladder both build
// their inputs from it.
package spec

import (
	"fmt"
	"math/rand"

	"dbproc"
	"dbproc/internal/wire"
)

// Clients is the closed-loop client count: the host has two cores, and a
// request/response driver's callers each wait for their reply, so two
// clients with zero think time is the load this benchmark offers.
const Clients = 2

// Workload is one set of inputs. The three world workloads drive a bench
// world over typed frames (client.Conn.WorldNext); quel-sql runs real
// QUEL through database/sql. Every shape parameter is fixed here; the
// seed only draws which tuples, bands and procedures an op touches.
type Workload struct {
	Name string
	Why  string
	// World shape (empty Strategy marks the QUEL workload): the paper's
	// defaults except K, Q, F, the model, uniform access (see Params) and,
	// with OnlyJoins, a population of 200 join procedures and no
	// selections.
	Strategy  string
	Model     string
	K, Q, F   float64
	OnlyJoins bool
	// NominalOpsPerS is the throughput observed on the seed commit. It
	// sizes the fixed op count at which simulated cost and server memory
	// are read, so those two do not grow with the speed of the run.
	NominalOpsPerS float64
}

// Workloads lists the four workloads; each strategy appears once. Why is
// the one-line reason BENCHMARK.json repeats.
var Workloads = []Workload{
	{
		Name:     "hot-read",
		Why:      "uc-avm, model 1, K=4000 Q=500000: a cached access is ~11us of engine work in a ~150us round trip, so client, wire and server dominate and a strategy or index change must show nothing",
		Strategy: "uc-avm", Model: "1", K: 4_000, Q: 500_000,
		NominalOpsPerS: 10_500,
	},
	{
		Name:     "recompute-scan",
		Why:      "recompute, model 2, 200 join procedures, f=0.01, K=4000 Q=26000: every access scans a 1000-tuple band and probes two hash joins (~2ms), so query, btree, hashidx and storage dominate, not the wire",
		Strategy: "recompute", Model: "2", K: 4_000, Q: 26_000, F: 0.01, OnlyJoins: true,
		NominalOpsPerS: 850,
	},
	{
		Name:     "update-heavy",
		Why:      "uc-rvm, model 1, K=Q=35000 (P=0.5): the write side of the layers hot-read reads - rel:r1 exclusive locks, MVCC epoch publish, B-tree delete and insert, Rete maintenance",
		Strategy: "uc-rvm", Model: "1", K: 35_000, Q: 35_000,
		NominalOpsPerS: 1_950,
	},
	{
		Name:           "quel-sql",
		Why:            "real QUEL through database/sql, pool of 2: 90% execute (Z=0.2, all rows read), 10% replace, 22000 rows, 100 procedures - parse and plan, the statement gate, cursors, JSON rows, C&I with i-locks",
		NominalOpsPerS: 7_000,
	},
}

// ByName finds a workload.
func ByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// IsQuel reports whether w is the database/sql workload.
func (w Workload) IsQuel() bool { return w.Strategy == "" }

// Params returns the paper's defaults with the workload's overrides.
//
// Access is uniform (Z = 0.5) in every world. Under the three world
// strategies a cached result is valid whichever procedure is popular, so
// the paper's skew would only decide which procedures a seed happens to
// favour — 100-tuple selections or 10-tuple joins — and make one seed's
// ops cheaper than another's: a lottery, not a property under test.
func (w Workload) Params() dbproc.Params {
	p := dbproc.DefaultParams()
	p.K, p.Q, p.Z = w.K, w.Q, 0.5
	if w.F != 0 {
		p.F = w.F
	}
	if w.OnlyJoins {
		p.N1, p.N2 = 0, 200
	}
	return p
}

// Open is the WorldOpen request for this workload; traced worlds carry
// the per-op critical path.
func (w Workload) Open(seed int64, sessions int, traced bool) *wire.WorldOpen {
	return &wire.WorldOpen{
		Params: w.Params(), Model: w.Model, Strategy: w.Strategy,
		Seed: seed, Clients: sessions, CritPath: traced,
	}
}

// SimConfig is the same configuration for dbproc.Simulate, the local end
// of the identity check.
func (w Workload) SimConfig(p dbproc.Params, seed int64) dbproc.SimConfig {
	strategies := map[string]dbproc.Strategy{
		"recompute": dbproc.AlwaysRecompute, "ci": dbproc.CacheInvalidate,
		"uc-avm": dbproc.UpdateCacheAVM, "uc-rvm": dbproc.UpdateCacheRVM,
	}
	model := dbproc.Model1
	if w.Model == "2" {
		model = dbproc.Model2
	}
	return dbproc.SimConfig{Params: p, Model: model, Strategy: strategies[w.Strategy], Seed: seed}
}

// CheckpointOps is the per-client op count at which sim_ms_per_access
// and server_peak_rss_mb are read: 40% of what the seed commit does in
// the run, so a run reaches it with room to spare and a faster program
// is not charged for the extra history it accumulates afterwards.
func (w Workload) CheckpointOps(seconds float64) int {
	n := int(0.4 * w.NominalOpsPerS * seconds / Clients)
	if n < 10 {
		n = 10
	}
	return n
}

// ---------------------------------------------------------------------------
// The QUEL workload

// Shape of the quel-sql database. Procedure i is a P1 selection for
// i < quelP1 and a P2 join above; procedures with i%11 == 0 among the P1
// are wide (quelWideBand rows, three cursor batches), and those with
// i%5 == 0 form the hot fifth that receives 80% of the executes (the
// paper's Z = 0.2). Which procedures are hot or wide does not depend on
// the seed, so every seed offers the same amount of work per op.
const (
	quelR1Rows     = 20_000
	quelR2Rows     = 2_000
	quelP1         = 50
	QuelProcs      = 100
	quelNarrowBand = 40
	quelWideBand   = 600
	quelP2Max      = 1_000
	quelUpdateFrac = 0.10
)

func quelWide(i int) bool { return i < quelP1 && i%11 == 0 }
func quelHot(i int) bool  { return i%5 == 0 }

// QuelDB is the seed's database: what to create, load and define.
type QuelDB struct {
	// Creates, Appends and Defines are the population script, to be run
	// in that order: procedures are defined last, so every cache is
	// filled from the loaded relations.
	Creates, Appends, Defines []string
	// Predicates[i] is procedure i's body as a direct retrieve — what
	// "execute p<i>" must equal.
	Predicates []string
	hot, cold  []int
}

// ProcName is procedure i's name.
func ProcName(i int) string { return fmt.Sprintf("p%d", i) }

// BuildQuelDB draws the seed's database. It is a pure function of seed.
func BuildQuelDB(seed int64) *QuelDB {
	rng := rand.New(rand.NewSource(seed))
	db := &QuelDB{Creates: []string{
		"create r1 (tid, skey, jkey) cluster on skey",
		"create r2 (jkey, p2) hash on jkey",
	}}
	for j := 0; j < quelR2Rows; j++ {
		db.Appends = append(db.Appends, fmt.Sprintf("append to r2 (jkey = %d, p2 = %d)", j, rng.Intn(quelP2Max)))
	}
	for i := 0; i < quelR1Rows; i++ {
		db.Appends = append(db.Appends, fmt.Sprintf("append to r1 (tid = %d, skey = %d, jkey = %d)", i, i, rng.Intn(quelR2Rows)))
	}
	for i := 0; i < QuelProcs; i++ {
		width := quelNarrowBand
		if quelWide(i) {
			width = quelWideBand
		}
		lo := rng.Intn(quelR1Rows - width)
		var body string
		if i < quelP1 {
			body = fmt.Sprintf("retrieve (r1.all) where r1.skey >= %d and r1.skey < %d", lo, lo+width)
		} else {
			body = fmt.Sprintf("retrieve (r1.tid, r1.skey, r2.p2) where r1.skey >= %d and r1.skey < %d and r1.jkey = r2.jkey and r2.p2 < %d",
				lo, lo+width, quelP2Max/2)
		}
		db.Predicates = append(db.Predicates, body)
		db.Defines = append(db.Defines, fmt.Sprintf("define procedure %s as %s", ProcName(i), body))
		if quelHot(i) {
			db.hot = append(db.hot, i)
		} else {
			db.cold = append(db.cold, i)
		}
	}
	return db
}

// ProbeStatements is the fixed schedule of the simulated-cost probe:
// rounds in which every procedure is executed once, in an order the seed
// shuffles, with a replace after every tenth execute (the stream's 10 %).
// Every seed's probe thus holds the same executes; only which cached
// results the replaces invalidate is left to chance.
func (db *QuelDB) ProbeStatements(seed int64, rounds int) []QuelStmt {
	rng := rand.New(rand.NewSource(seed*104729 + 17))
	var out []QuelStmt
	for r := 0; r < rounds; r++ {
		for n, i := range rng.Perm(QuelProcs) {
			out = append(out, QuelStmt{Text: "execute " + ProcName(i)})
			if n%10 == 9 {
				out = append(out, replaceStmt(rng))
			}
		}
	}
	return out
}

func replaceStmt(rng *rand.Rand) QuelStmt {
	return QuelStmt{
		Text:   fmt.Sprintf("replace r1 (jkey = %d) where r1.skey = %d", rng.Intn(quelR2Rows), rng.Intn(quelR1Rows)),
		Update: true,
	}
}

// QuelStmt is one statement of a session's stream.
type QuelStmt struct {
	Text   string
	Update bool
}

// QuelStream deals one session's statements: a pure function of
// (seed, session), so a run can be replayed and two sessions never draw
// from a shared generator.
type QuelStream struct {
	rng *rand.Rand
	db  *QuelDB
}

// NewQuelStream opens session's stream over db.
func NewQuelStream(db *QuelDB, seed int64, session int) *QuelStream {
	return &QuelStream{rng: rand.New(rand.NewSource(seed*7919 + int64(session) + 1)), db: db}
}

// Next draws the next statement: a replace of one r1 tuple's join key
// with probability quelUpdateFrac, otherwise an execute under the skew.
func (s *QuelStream) Next() QuelStmt {
	if s.rng.Float64() < quelUpdateFrac {
		return replaceStmt(s.rng)
	}
	set := s.db.cold
	if s.rng.Float64() < 0.8 {
		set = s.db.hot
	}
	return QuelStmt{Text: "execute " + ProcName(set[s.rng.Intn(len(set))])}
}
