package spec

import (
	"reflect"
	"strings"
	"testing"

	"dbproc/internal/quel"
)

func drawStatements(db *QuelDB, seed int64, session, n int) []QuelStmt {
	s := NewQuelStream(db, seed, session)
	out := make([]QuelStmt, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

func TestQuelInputsArePureFunctionsOfTheSeed(t *testing.T) {
	a, b := BuildQuelDB(7), BuildQuelDB(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("BuildQuelDB(7) differs between two calls")
	}
	if reflect.DeepEqual(a.Defines, BuildQuelDB(8).Defines) {
		t.Error("seeds 7 and 8 define the same procedures")
	}
	if !reflect.DeepEqual(drawStatements(a, 7, 0, 500), drawStatements(b, 7, 0, 500)) {
		t.Error("the statement stream of (seed 7, session 0) is not reproducible")
	}
	if reflect.DeepEqual(drawStatements(a, 7, 0, 500), drawStatements(a, 7, 1, 500)) {
		t.Error("sessions 0 and 1 draw the same stream")
	}
	if reflect.DeepEqual(drawStatements(a, 7, 0, 500), drawStatements(a, 8, 0, 500)) {
		t.Error("seeds 7 and 8 draw the same stream")
	}
}

func TestQuelShapeDoesNotDependOnTheSeed(t *testing.T) {
	for _, seed := range []int64{1, 2, 99} {
		db := BuildQuelDB(seed)
		if len(db.Creates) != 2 || len(db.Appends) != quelR1Rows+quelR2Rows || len(db.Defines) != QuelProcs || len(db.Predicates) != QuelProcs {
			t.Fatalf("seed %d: %d creates, %d appends, %d defines, %d predicates", seed, len(db.Creates), len(db.Appends), len(db.Defines), len(db.Predicates))
		}
		if len(db.hot) != QuelProcs/5 {
			t.Errorf("seed %d: %d hot procedures, want a fifth of %d (Z = 0.2)", seed, len(db.hot), QuelProcs)
		}
		wideHot := 0
		for _, i := range db.hot {
			if quelWide(i) {
				wideHot++
			}
		}
		if wideHot != 1 {
			t.Errorf("seed %d: %d wide procedures in the hot set, want exactly 1", seed, wideHot)
		}
	}
}

func TestQuelMixAndSyntax(t *testing.T) {
	db := BuildQuelDB(3)
	stmts := drawStatements(db, 3, 0, 20_000)
	updates, hot := 0, 0
	isHot := map[string]bool{}
	for _, i := range db.hot {
		isHot["execute "+ProcName(i)] = true
	}
	for _, st := range stmts {
		if st.Update {
			updates++
		} else if isHot[st.Text] {
			hot++
		}
	}
	if share := float64(updates) / float64(len(stmts)); share < 0.09 || share > 0.11 {
		t.Errorf("replace share %.3f, want 0.10", share)
	}
	if share := float64(hot) / float64(len(stmts)-updates); share < 0.78 || share > 0.82 {
		t.Errorf("hot-set share of executes %.3f, want 0.80", share)
	}
	// Every statement shape the workload sends must parse.
	samples := []string{db.Creates[0], db.Creates[1], db.Appends[0], db.Appends[len(db.Appends)-1],
		db.Defines[0], db.Defines[QuelProcs-1], db.Predicates[0], db.Predicates[QuelProcs-1]}
	for _, st := range stmts[:50] {
		samples = append(samples, st.Text)
	}
	for _, text := range samples {
		if _, err := quel.Parse(text); err != nil {
			t.Errorf("%q does not parse: %v", text, err)
		}
	}
}

func TestWorkloadTable(t *testing.T) {
	strategies := map[string]bool{}
	for _, w := range Workloads {
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") || w.Why == "" {
			t.Errorf("%s: the reason must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if got, ok := ByName(w.Name); !ok || got.Name != w.Name {
			t.Errorf("ByName(%q) does not find it", w.Name)
		}
		if w.NominalOpsPerS <= 0 || w.CheckpointOps(20) < 1000 {
			t.Errorf("%s: checkpoint of %d ops at 20s is too small to mean anything", w.Name, w.CheckpointOps(20))
		}
		if w.IsQuel() {
			strategies["ci"] = true // the QUEL session runs Cache and Invalidate
			continue
		}
		strategies[w.Strategy] = true
		p := w.Params()
		if p.K != w.K || p.Q != w.Q || (w.F != 0 && p.F != w.F) {
			t.Errorf("%s: params %+v do not carry the workload's K, Q, F", w.Name, p)
		}
		if open := w.Open(5, Clients, true); open.Seed != 5 || open.Clients != Clients || !open.CritPath || open.Strategy != w.Strategy {
			t.Errorf("%s: WorldOpen %+v", w.Name, open)
		}
	}
	for _, s := range []string{"recompute", "ci", "uc-avm", "uc-rvm"} {
		if !strategies[s] {
			t.Errorf("no workload runs strategy %s", s)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName finds a workload that does not exist")
	}
}
