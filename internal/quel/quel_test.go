package quel

import (
	"fmt"
	"strings"
	"testing"

	"dbproc/internal/metric"
)

func newDB(t *testing.T) *DB {
	t.Helper()
	db := Open(256, 64, metric.DefaultCosts())
	must := func(stmt string) {
		t.Helper()
		if _, err := db.Run(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	must("create emp (tid, age, dept, salary) cluster on age")
	must("create dept (dname, floor) hash on dname buckets 4")
	emps := []struct{ tid, age, dept, salary int64 }{
		{1, 25, 10, 30000}, {2, 31, 10, 45000}, {3, 35, 20, 52000},
		{4, 41, 20, 61000}, {5, 55, 30, 70000}, {6, 35, 30, 48000},
	}
	for _, e := range emps {
		must(fmt.Sprintf("append to emp (tid = %d, age = %d, dept = %d, salary = %d)",
			e.tid, e.age, e.dept, e.salary))
	}
	must("append to dept (dname = 10, floor = 1)")
	must("append to dept (dname = 20, floor = 2)")
	must("append to dept (dname = 30, floor = 1)")
	return db
}

func TestCreateAndAppendErrors(t *testing.T) {
	db := newDB(t)
	for _, bad := range []string{
		"create emp (tid) cluster on tid",                         // duplicate relation
		"create x (a, b) cluster on a",                            // no tid field
		"create y (a) sorted on a",                                // bad organization
		"append to nope (a = 1)",                                  // unknown relation
		"append to emp (zzz = 1)",                                 // unknown attribute
		"create z (a, b, c, d, e, f, g, h, i) hash on a width 16", // fields do not fit
	} {
		if _, err := db.Run(bad); err == nil {
			t.Errorf("%q should fail", bad)
		}
	}
}

func TestSimpleRetrieve(t *testing.T) {
	db := newDB(t)
	res, err := db.Run("retrieve (emp.all) where emp.age >= 31 and emp.age <= 41")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (ages 31, 35, 35, 41)", len(res.Rows))
	}
	if res.Columns[0] != "emp_tid" || len(res.Columns) != 4 {
		t.Fatalf("columns = %v", res.Columns)
	}
	if res.CostMs <= 0 {
		t.Fatal("retrieve charged nothing")
	}
	// Projection narrows columns.
	res, err = db.Run("retrieve (emp.tid, emp.salary) where emp.age = 35")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || len(res.Columns) != 2 {
		t.Fatalf("rows = %v cols = %v", res.Rows, res.Columns)
	}
}

func TestJoinRetrieve(t *testing.T) {
	db := newDB(t)
	// Employees on the first floor: depts 10 and 30 -> tids 1, 2, 5, 6.
	res, err := db.Run("retrieve (emp.tid, dept.floor) where emp.dept = dept.dname and dept.floor = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[1] != 1 {
			t.Fatalf("floor filter leaked: %v", row)
		}
	}
	// Constant on the left side of a qual works too.
	res2, err := db.Run("retrieve (emp.tid) where 31 <= emp.age and emp.dept = dept.dname and 1 = dept.floor")
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 3 { // tids 2 (31, dept 10), 6 (35, dept 30), 5 (55, dept 30)
		t.Fatalf("rows = %d, want 3: %v", len(res2.Rows), res2.Rows)
	}
}

func TestAttrAttrQualSameRelation(t *testing.T) {
	db := newDB(t)
	// tid < dept compares two attributes of the driver relation.
	res, err := db.Run("retrieve (emp.tid) where emp.tid < emp.dept")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
}

func TestProcedureLifecycle(t *testing.T) {
	db := newDB(t)
	if _, err := db.Run("define procedure seniors as retrieve (emp.all) where emp.age >= 41"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Run("execute seniors")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || !strings.Contains(res.Message, "from cache") {
		t.Fatalf("first execute: %d rows, %q", len(res.Rows), res.Message)
	}
	warmCost := res.CostMs

	// A statement that panics inside its update epoch (a duplicate
	// clustered key) still closes the epoch: nothing stays in flight, and
	// the cache it never touched is served as before.
	if _, err := db.Run("append to emp (tid = 5, age = 55, dept = 30, salary = 1)"); err == nil ||
		!strings.Contains(err.Error(), "btree: duplicate key") {
		t.Fatalf("append of a duplicate clustered key: err %v", err)
	}
	if db.pager.Disk().UpdateInFlight() {
		t.Fatal("the panicking append left its update epoch open")
	}
	if res, err = db.Run("execute seniors"); err != nil {
		t.Fatalf("execute after the failed append: %v", err)
	}
	if !strings.Contains(res.Message, "from cache") {
		t.Fatalf("execute after the failed append: %q", res.Message)
	}

	// An irrelevant append leaves the cache valid.
	if _, err := db.Run("append to emp (tid = 7, age = 22, dept = 10, salary = 1)"); err != nil {
		t.Fatal(err)
	}
	res, _ = db.Run("execute seniors")
	if !strings.Contains(res.Message, "from cache") {
		t.Fatalf("irrelevant append invalidated: %q", res.Message)
	}

	// A conflicting append invalidates; the next execute recomputes and
	// sees the new tuple.
	if _, err := db.Run("append to emp (tid = 8, age = 60, dept = 20, salary = 90000)"); err != nil {
		t.Fatal(err)
	}
	res, _ = db.Run("execute seniors")
	if len(res.Rows) != 3 || !strings.Contains(res.Message, "recomputed") {
		t.Fatalf("after conflicting append: %d rows, %q", len(res.Rows), res.Message)
	}
	if res.CostMs <= warmCost {
		t.Fatalf("recompute cost %.0f should exceed warm cost %.0f", res.CostMs, warmCost)
	}

	// Duplicate definition and unknown execute fail cleanly.
	if _, err := db.Run("define procedure seniors as retrieve (emp.all)"); err == nil {
		t.Fatal("duplicate procedure accepted")
	}
	if _, err := db.Run("execute nope"); err == nil {
		t.Fatal("unknown procedure accepted")
	}
}

func TestExplain(t *testing.T) {
	db := newDB(t)
	res, err := db.Run("explain retrieve (emp.tid) where emp.age = 35 and emp.dept = dept.dname")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Project(", "HashJoinProbe(dept = dept.dname)", "BTreeRangeScan(emp: 35 <= age <= 35)"} {
		if !strings.Contains(res.Message, want) {
			t.Errorf("explain missing %q:\n%s", want, res.Message)
		}
	}
	db.Run("define procedure p as retrieve (emp.all)")
	res, err = db.Run("explain p")
	if err != nil || !strings.Contains(res.Message, "BTreeRangeScan") {
		t.Fatalf("explain proc: %v %q", err, res.Message)
	}
	if _, err := db.Run("explain nope"); err == nil {
		t.Fatal("explain of unknown procedure accepted")
	}
}

func TestHashScanDriver(t *testing.T) {
	db := newDB(t)
	res, err := db.Run("retrieve (dept.all) where dept.floor = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
}

func TestPlannerErrors(t *testing.T) {
	db := newDB(t)
	db.Run("create other (dname, x) hash on dname")
	for _, bad := range []string{
		"retrieve (emp.all) where emp.age = nope.x",                     // unknown relation
		"retrieve (emp.zzz)",                                            // unknown attribute
		"retrieve (dept.all, other.all) where dept.dname = other.dname", // no clustered driver
		"retrieve (emp.tid, dept.all) where emp.dept = dept.floor",      // join not on hash attr
		"retrieve (emp.tid, dept.all)",                                  // no join path (cross product)
		"retrieve (emp.tid) where 1 = 2",                                // constant-only qual
	} {
		if _, err := db.Run(bad); err == nil {
			t.Errorf("%q should fail to plan", bad)
		}
	}
}

func TestParserErrors(t *testing.T) {
	for _, bad := range []string{
		"", "frobnicate", "create", "create x", "create x (", "create x (a",
		"create x (a) cluster", "create x (a) cluster on",
		"append emp (a = 1)", "append to emp a = 1)", "append to emp (a 1)",
		"append to emp (a = )", "retrieve", "retrieve (", "retrieve (emp)",
		"retrieve (emp.all", "retrieve (emp.all) where", "retrieve (emp.all) where emp.age",
		"retrieve (emp.all) where emp.age ~ 3", "retrieve (emp.all) extra",
		"define x", "define procedure", "define procedure p", "define procedure p as",
		"execute", "explain", "retrieve (emp.all) where emp.age = emp.", "append to emp (a = 99999999999999999999)",
		"retrieve (emp.all) where !3",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("%q should fail to parse", bad)
		}
	}
}

func TestLexerSymbols(t *testing.T) {
	toks, err := lex("a<=1>=2!=3<4>5")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks[:len(toks)-1] {
		texts = append(texts, tk.text)
	}
	want := []string{"a", "<=", "1", ">=", "2", "!=", "3", "<", "4", ">", "5"}
	if strings.Join(texts, " ") != strings.Join(want, " ") {
		t.Fatalf("lexed %v, want %v", texts, want)
	}
	if _, err := lex("a @ b"); err == nil {
		t.Fatal("bad character accepted")
	}
}

func TestDeleteAndReplace(t *testing.T) {
	db := newDB(t)
	// Delete the two 35-year-olds.
	res, err := db.Run("delete from emp where emp.age = 35")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Message, "deleted 2") {
		t.Fatalf("message = %q", res.Message)
	}
	res, _ = db.Run("retrieve (emp.all)")
	if len(res.Rows) != 4 {
		t.Fatalf("rows after delete = %d, want 4", len(res.Rows))
	}

	// Replace: give everyone in dept 10 a raise.
	res, err = db.Run("replace emp (salary = 99000) where emp.dept = 10")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Message, "replaced 2") {
		t.Fatalf("message = %q", res.Message)
	}
	res, _ = db.Run("retrieve (emp.salary) where emp.dept = 10")
	for _, row := range res.Rows {
		if row[0] != 99000 {
			t.Fatalf("raise not applied: %v", res.Rows)
		}
	}

	// Delete from a hash relation uses exact-match removal.
	if _, err := db.Run("delete from dept where dept.floor = 2"); err != nil {
		t.Fatal(err)
	}
	res, _ = db.Run("retrieve (dept.all)")
	if len(res.Rows) != 2 {
		t.Fatalf("dept rows = %d, want 2", len(res.Rows))
	}

	// Quals may only reference the target relation.
	if _, err := db.Run("delete from emp where emp.dept = dept.dname"); err == nil {
		t.Fatal("cross-relation delete accepted")
	}
	if _, err := db.Run("replace emp (zzz = 1) where emp.tid = 1"); err == nil {
		t.Fatal("replace of unknown attribute accepted")
	}
	if _, err := db.Run("delete from nope"); err == nil {
		t.Fatal("delete from unknown relation accepted")
	}
}

func TestReplaceInvalidatesProcedures(t *testing.T) {
	db := newDB(t)
	db.Run("define procedure dept10 as retrieve (emp.all) where emp.dept = 10")
	res, _ := db.Run("execute dept10")
	if len(res.Rows) != 2 || !strings.Contains(res.Message, "from cache") {
		t.Fatalf("warm execute: %q", res.Message)
	}
	// Moving an employee's clustering attribute through replace must
	// invalidate the procedure (its i-lock covers the full age range).
	if _, err := db.Run("replace emp (age = 80) where emp.tid = 2"); err != nil {
		t.Fatal(err)
	}
	res, _ = db.Run("execute dept10")
	if !strings.Contains(res.Message, "recomputed") {
		t.Fatalf("replace did not invalidate: %q", res.Message)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (membership unchanged)", len(res.Rows))
	}
}

// TestMultiQueryProcedure exercises the paper's literal definition of a
// database procedure as a COLLECTION of queries: both result sets are
// cached independently and invalidated independently.
func TestMultiQueryProcedure(t *testing.T) {
	db := newDB(t)
	if _, err := db.Run("define procedure report as { retrieve (emp.tid) where emp.age >= 41 retrieve (dept.all) where dept.floor = 1 }"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Run("execute report")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || len(res.Sections) != 1 || len(res.Sections[0].Rows) != 2 {
		t.Fatalf("report parts: %d + %d sections", len(res.Rows), len(res.Sections))
	}
	if !strings.Contains(res.Message, "4 tuple(s) (from cache)") {
		t.Fatalf("message = %q", res.Message)
	}

	// An update touching only the first query invalidates only it; the
	// procedure as a whole reports a recompute but the dept part's cache
	// stays warm (cost well below a full recompute of both).
	if _, err := db.Run("append to emp (tid = 9, age = 70, dept = 10, salary = 1)"); err != nil {
		t.Fatal(err)
	}
	res, _ = db.Run("execute report")
	if len(res.Rows) != 3 || !strings.Contains(res.Message, "recomputed") {
		t.Fatalf("after append: %d rows, %q", len(res.Rows), res.Message)
	}

	// explain prints one plan per query.
	res, _ = db.Run("explain report")
	if strings.Count(res.Message, "Project(") != 2 {
		t.Fatalf("explain should show 2 plans:\n%s", res.Message)
	}

	// Empty body and mid-body errors are rejected cleanly.
	if _, err := db.Run("define procedure empty as { }"); err == nil {
		t.Fatal("empty body accepted")
	}
	if _, err := db.Run("define procedure bad as { retrieve (emp.all) retrieve (zzz.all) }"); err == nil {
		t.Fatal("bad part accepted")
	}
	if _, err := db.Run("execute bad"); err == nil {
		t.Fatal("failed definition left a procedure behind")
	}
}

func TestAggregates(t *testing.T) {
	db := newDB(t)
	// Scalar aggregates over the whole relation.
	res, err := db.Run("retrieve (count(emp.tid), sum(emp.salary), min(emp.age), max(emp.age), avg(emp.salary))")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("scalar aggregate rows = %d", len(res.Rows))
	}
	row := res.Rows[0]
	// 6 emps; salaries 30000+45000+52000+61000+70000+48000 = 306000.
	if row[0] != 6 || row[1] != 306000 || row[2] != 25 || row[3] != 55 || row[4] != 51000 {
		t.Fatalf("aggregates = %v", row)
	}

	// Grouped: per-department counts and max salary.
	res, err = db.Run("retrieve (emp.dept, count(emp.tid), max(emp.salary)) where emp.age >= 25")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(res.Rows))
	}
	want := map[int64][2]int64{10: {2, 45000}, 20: {2, 61000}, 30: {2, 70000}}
	for _, row := range res.Rows {
		w := want[row[0]]
		if row[1] != w[0] || row[2] != w[1] {
			t.Fatalf("group %d = %v, want %v", row[0], row[1:], w)
		}
	}
	if res.Columns[1] != "count_emp_tid" || res.Columns[2] != "max_emp_salary" {
		t.Fatalf("columns = %v", res.Columns)
	}

	// Scalar aggregate over an empty selection still yields one row.
	res, err = db.Run("retrieve (count(emp.tid)) where emp.age > 1000")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != 0 {
		t.Fatalf("empty count = %v", res.Rows)
	}

	// Grouped aggregate over a join.
	res, err = db.Run("retrieve (dept.floor, count(emp.tid)) where emp.dept = dept.dname")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // floors 1 and 2
		t.Fatalf("join groups = %d: %v", len(res.Rows), res.Rows)
	}

	// rel.all mixed with aggregates is rejected.
	if _, err := db.Run("retrieve (emp.all, count(emp.tid))"); err == nil {
		t.Fatal("rel.all with aggregate accepted")
	}
}

// TestCachedAggregateProcedure: a stored aggregate is a materialized
// aggregate view — served from cache, invalidated by relevant updates.
func TestCachedAggregateProcedure(t *testing.T) {
	db := newDB(t)
	if _, err := db.Run("define procedure payroll as retrieve (emp.dept, sum(emp.salary))"); err != nil {
		t.Fatal(err)
	}
	res, _ := db.Run("execute payroll")
	if len(res.Rows) != 3 || !strings.Contains(res.Message, "from cache") {
		t.Fatalf("payroll: %v %q", res.Rows, res.Message)
	}
	if _, err := db.Run("replace emp (salary = 100000) where emp.tid = 1"); err != nil {
		t.Fatal(err)
	}
	res, _ = db.Run("execute payroll")
	if !strings.Contains(res.Message, "recomputed") {
		t.Fatalf("aggregate cache not invalidated: %q", res.Message)
	}
	for _, row := range res.Rows {
		if row[0] == 10 && row[1] != 145000 { // 100000 + 45000
			t.Fatalf("dept 10 payroll = %d, want 145000", row[1])
		}
	}
}

func TestSortBy(t *testing.T) {
	db := newDB(t)
	res, err := db.Run("retrieve (emp.salary, emp.tid) where emp.age >= 25 sort by emp.salary")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i][0] < res.Rows[i-1][0] {
			t.Fatalf("not sorted by salary: %v", res.Rows)
		}
	}
	// Multi-key sort and sort on aggregates' group keys work.
	res, err = db.Run("retrieve (emp.dept, count(emp.tid)) sort by emp.dept")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i][0] < res.Rows[i-1][0] {
			t.Fatalf("aggregate groups not sorted: %v", res.Rows)
		}
	}
	// Sorting on a non-target attribute is rejected.
	if _, err := db.Run("retrieve (emp.tid) sort by emp.salary"); err == nil {
		t.Fatal("sort on non-target accepted")
	}
	// Parse errors.
	if _, err := Parse("retrieve (emp.tid) sort"); err == nil {
		t.Fatal("bare sort accepted")
	}
	if _, err := Parse("retrieve (emp.tid) sort by"); err == nil {
		t.Fatal("empty sort list accepted")
	}
}
