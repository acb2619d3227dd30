package quel

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// rowsText renders rows sorted, so results compare as sets.
func rowsText(rows [][]int64) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = fmt.Sprint(r)
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}

// sameAsRetrieve checks the never-stale rule: execute p serves exactly
// what a retrieve of p's query returns now.
func sameAsRetrieve(t *testing.T, db *DB, proc, query string) {
	t.Helper()
	exec, err := db.Run("execute " + proc)
	if err != nil {
		t.Fatalf("execute %s: %v", proc, err)
	}
	ret, err := db.Run(query)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	if got, want := rowsText(exec.Rows), rowsText(ret.Rows); got != want {
		t.Fatalf("execute %s (%s) serves\n%s\nretrieve returns\n%s", proc, exec.Message, got, want)
	}
}

const p35 = "retrieve (emp.all) where emp.age = 35"

// TestFailedUpdateIsAtomic: a replace that deletes its row and then fails
// to insert the new one (the new key is taken) changes nothing, and the
// procedure cache keeps serving what a retrieve returns.
func TestFailedUpdateIsAtomic(t *testing.T) {
	db := newDB(t)
	if _, err := db.Run("define procedure p35 as " + p35); err != nil {
		t.Fatal(err)
	}
	sameAsRetrieve(t, db, "p35", p35)
	before := rowsOf(t, db)
	for _, bad := range []string{
		"replace emp (tid = 3) where emp.tid = 6",           // duplicate cluster key
		"replace emp (age = 5000000000) where emp.age = 35", // out-of-range cluster key
	} {
		if _, err := db.Run(bad); err == nil {
			t.Fatalf("%q succeeded", bad)
		}
		if after := rowsOf(t, db); after != before {
			t.Fatalf("%q changed emp:\nbefore:\n%s\nafter:\n%s", bad, before, after)
		}
		sameAsRetrieve(t, db, "p35", p35)
		if db.pager.Disk().UpdateInFlight() {
			t.Fatalf("%q left its epoch open", bad)
		}
	}
	// The session goes on: the next update commits.
	if _, err := db.Run("replace emp (tid = 7) where emp.tid = 6"); err != nil {
		t.Fatal(err)
	}
	sameAsRetrieve(t, db, "p35", p35)
}

// TestTxFailedUpdateAborts: a failed update inside a transaction rolls the
// whole transaction back and aborts it. Later statements fail until the
// transaction is closed; Commit reports the abort, Rollback succeeds, and
// either way the rows are those before Begin.
func TestTxFailedUpdateAborts(t *testing.T) {
	for _, end := range []string{"commit", "rollback"} {
		t.Run(end, func(t *testing.T) {
			db := newDB(t)
			if _, err := db.Run("define procedure p35 as " + p35); err != nil {
				t.Fatal(err)
			}
			sameAsRetrieve(t, db, "p35", p35)
			before := rowsOf(t, db)
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.Run("append to emp (tid = 9, age = 35, dept = 10, salary = 1)"); err != nil {
				t.Fatal(err)
			}
			_, err = db.Run("replace emp (tid = 3) where emp.tid = 6")
			if err == nil || !strings.Contains(err.Error(), "transaction rolled back") {
				t.Fatalf("failed replace in tx: err = %v, want it to say the transaction rolled back", err)
			}
			for _, later := range []string{p35, "append to emp (tid = 10, age = 1)", "execute p35"} {
				if _, err := db.Run(later); err != errAborted {
					t.Fatalf("%q after the abort: err = %v, want %v", later, err, errAborted)
				}
			}
			if end == "commit" {
				if err := tx.Commit(); err != errAborted {
					t.Fatalf("Commit of an aborted tx: %v, want %v", err, errAborted)
				}
			} else if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
			if db.InTx() {
				t.Fatal("tx still open")
			}
			if after := rowsOf(t, db); after != before {
				t.Fatalf("aborted tx changed emp:\nbefore:\n%s\nafter:\n%s", before, after)
			}
			sameAsRetrieve(t, db, "p35", p35)
		})
	}
}

// empKey is a tuple's B-tree key: the cluster attribute and the tid.
type empKey struct{ age, tid int64 }

// empModel is the property test's oracle: emp as a plain map.
type empModel map[empKey][4]int64 // tid, age, dept, salary

func (m empModel) rows() string {
	rows := make([][]int64, 0, len(m))
	for _, r := range m {
		rows = append(rows, r[:])
	}
	return rowsText(rows)
}

// outOfRange is a cluster value no B-tree key can hold.
const outOfRange = 5000000000

// modelStmt is one generated update: its QUEL text and what it does to
// the model, false when the engine must reject it.
type modelStmt struct {
	text  string
	apply func(m empModel) bool
}

// field indexes emp's attributes in model rows.
var empFields = map[string]int{"tid": 0, "age": 1, "dept": 2, "salary": 3}

// genUpdate draws one append, delete or replace over a small key space,
// so duplicate keys are common; some set an out-of-range cluster value.
func genUpdate(r *rand.Rand) modelStmt {
	age := func() int64 {
		if r.Intn(12) == 0 {
			return outOfRange
		}
		return int64(20 + r.Intn(8))
	}
	where := func() (string, func(row [4]int64) bool) {
		f := []string{"tid", "age", "dept"}[r.Intn(3)]
		v := int64(r.Intn(8)) + map[string]int64{"tid": 1, "age": 20, "dept": 1}[f]
		i := empFields[f]
		return fmt.Sprintf("where emp.%s = %d", f, v), func(row [4]int64) bool { return row[i] == v }
	}
	switch r.Intn(4) {
	case 0:
		row := [4]int64{int64(1 + r.Intn(8)), age(), int64(1 + r.Intn(8)), int64(r.Intn(1000))}
		return modelStmt{
			text: fmt.Sprintf("append to emp (tid = %d, age = %d, dept = %d, salary = %d)", row[0], row[1], row[2], row[3]),
			apply: func(m empModel) bool {
				k := empKey{row[1], row[0]}
				if _, dup := m[k]; dup || row[1] == outOfRange {
					return false
				}
				m[k] = row
				return true
			},
		}
	case 1:
		w, match := where()
		return modelStmt{
			text: "delete from emp " + w,
			apply: func(m empModel) bool {
				for k, row := range m {
					if match(row) {
						delete(m, k)
					}
				}
				return true
			},
		}
	default:
		f := []string{"tid", "age", "dept", "salary"}[r.Intn(4)]
		v := int64(1 + r.Intn(8))
		if f == "age" {
			v = age()
		}
		w, match := where()
		i := empFields[f]
		return modelStmt{
			text: fmt.Sprintf("replace emp (%s = %d) %s", f, v, w),
			apply: func(m empModel) bool {
				var moved [][4]int64
				for k, row := range m {
					if match(row) {
						delete(m, k)
						row[i] = v
						moved = append(moved, row)
					}
				}
				for _, row := range moved {
					k := empKey{row[1], row[0]}
					if _, dup := m[k]; dup || row[1] == outOfRange {
						return false
					}
					m[k] = row
				}
				return true
			},
		}
	}
}

// TestRollbackHeavyProperty drives random updates — many of them failing
// on a duplicate or out-of-range cluster key — mixed with Begin, Commit
// and Rollback and with executes of cached procedures, against a map
// model. After every statement emp must equal the model (the committed
// state, or the open transaction's), and every execute must equal a
// retrieve of its query: a failed update changes nothing, a rollback
// leaves no trace, and the cache is never stale.
func TestRollbackHeavyProperty(t *testing.T) {
	procs := map[string]string{
		"pa": "retrieve (emp.all) where emp.age = 22",
		"pb": "retrieve (emp.all) where emp.age >= 21 and emp.age <= 24",
		"pc": "retrieve (emp.tid, emp.salary) where emp.dept = 3",
	}
	names := []string{"pa", "pb", "pc"}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			db := newDB(t)
			if _, err := db.Run("delete from emp where emp.age >= 0"); err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				if _, err := db.Run("define procedure " + name + " as " + procs[name]); err != nil {
					t.Fatal(err)
				}
			}
			committed := empModel{}
			var tx *Tx
			var txModel empModel // the open transaction's state; nil once aborted
			current := func() empModel {
				if tx != nil {
					return txModel
				}
				return committed
			}
			for step := 0; step < 600; step++ {
				var what string
				switch k := r.Intn(20); {
				case k == 0 && tx == nil:
					what = "begin"
					var err error
					if tx, err = db.Begin(); err != nil {
						t.Fatal(err)
					}
					txModel = maps.Clone(committed)
				case k == 1 && tx != nil:
					what = "commit"
					err := tx.Commit()
					if txModel == nil {
						if err != errAborted {
							t.Fatalf("step %d: commit of an aborted tx: %v", step, err)
						}
					} else if err != nil {
						t.Fatalf("step %d: commit: %v", step, err)
					} else {
						committed = txModel
					}
					tx = nil
				case k == 2 && tx != nil:
					what = "rollback"
					if err := tx.Rollback(); err != nil {
						t.Fatalf("step %d: rollback: %v", step, err)
					}
					tx = nil
				case k < 8:
					name := names[r.Intn(len(names))]
					what = "execute " + name
					if tx != nil && txModel == nil {
						if _, err := db.Run(what); err != errAborted {
							t.Fatalf("step %d: %s in an aborted tx: %v", step, what, err)
						}
						continue
					}
					sameAsRetrieve(t, db, name, procs[name])
				default:
					st := genUpdate(r)
					what = st.text
					_, err := db.Run(st.text)
					if tx != nil && txModel == nil {
						if err != errAborted {
							t.Fatalf("step %d: %s in an aborted tx: %v", step, what, err)
						}
						continue
					}
					next := maps.Clone(current())
					ok := st.apply(next)
					if ok != (err == nil) {
						t.Fatalf("step %d: %s: err = %v, model says ok = %v", step, what, err, ok)
					}
					switch {
					case ok && tx != nil:
						txModel = next
					case ok:
						committed = next
					case tx != nil:
						txModel = nil // aborted
					}
				}
				if tx != nil && txModel == nil {
					continue
				}
				res, err := db.Run("retrieve (emp.all) where emp.age >= 0")
				if err != nil {
					t.Fatalf("step %d (%s): retrieve: %v", step, what, err)
				}
				if got, want := rowsText(res.Rows), current().rows(); got != want {
					t.Fatalf("step %d (%s): emp is\n%s\nmodel has\n%s", step, what, got, want)
				}
			}
		})
	}
}
