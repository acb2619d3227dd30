package quel

import (
	"fmt"
	"testing"

	"dbproc/internal/metric"
)

// TestCachedExecuteAllocatesByTheBlock: a cached execute renders each
// result set as one block of values plus one slice of row headers, so
// what it allocates does not grow with the procedure's rows. It used to
// allocate one slice per row: 600 more for the wide procedure than for
// none at all. The two may differ by 2 allocations (fmt boxes the tuple
// count of the message once it passes 255).
func TestCachedExecuteAllocatesByTheBlock(t *testing.T) {
	db := Open(0, 0, metric.DefaultCosts())
	run := func(stmt string) {
		t.Helper()
		if _, err := db.Run(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	run("create r1 (tid, skey, jkey) cluster on skey")
	for i := 0; i < 1000; i++ {
		run(fmt.Sprintf("append to r1 (tid = %d, skey = %d, jkey = %d)", i, i, i%7))
	}
	run("define procedure narrow as retrieve (r1.all) where r1.skey >= 100 and r1.skey < 140")
	run("define procedure wide as retrieve (r1.all) where r1.skey >= 200 and r1.skey < 800")

	allocs := func(name string, rows int) float64 {
		stmt := "execute " + name
		res, err := db.Run(stmt)
		if err != nil || len(res.Rows) != rows {
			t.Fatalf("%s: %v, %d rows, want %d", stmt, err, len(res.Rows), rows)
		}
		return testing.AllocsPerRun(100, func() { run(stmt) })
	}
	narrow, wide := allocs("narrow", 40), allocs("wide", 600)
	t.Logf("cached execute: %.0f allocations at 40 rows, %.0f at 600", narrow, wide)
	if wide > narrow+2 {
		t.Fatalf("a 600-row execute allocates %.0f times, a 40-row one %.0f: the rows are not one block", wide, narrow)
	}
}

// TestUnchangedExecuteSharesItsRows: an execute whose tuples hold the
// values the session's last execute of the procedure returned hands out
// those rows again instead of rendering another block; once a replace
// changes a value, the next execute renders fresh rows and the rows
// handed out before keep the old value.
func TestUnchangedExecuteSharesItsRows(t *testing.T) {
	db := Open(0, 0, metric.DefaultCosts())
	run := func(stmt string) *Result {
		t.Helper()
		res, err := db.Run(stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		return res
	}
	run("create r1 (tid, skey, jkey) cluster on skey")
	for i := 0; i < 1000; i++ {
		run(fmt.Sprintf("append to r1 (tid = %d, skey = %d, jkey = %d)", i, i, i%7))
	}
	run("define procedure wide as retrieve (r1.all) where r1.skey >= 200 and r1.skey < 800")

	first, again := run("execute wide"), run("execute wide")
	if len(first.Rows) != 600 || &first.Rows[0][0] != &again.Rows[0][0] {
		t.Fatalf("unchanged execute rendered new rows (%d rows)", len(first.Rows))
	}
	jkey := func(res *Result, skey int64) int64 {
		for _, r := range res.Rows {
			if r[1] == skey {
				return r[2]
			}
		}
		t.Fatalf("no row with skey %d", skey)
		return 0
	}
	run("replace r1 (jkey = 99) where r1.skey = 300")
	after := run("execute wide")
	if got := jkey(after, 300); got != 99 {
		t.Fatalf("execute after replace: jkey %d, want 99", got)
	}
	if got := jkey(first, 300); got != 300%7 {
		t.Fatalf("rows handed out before the replace now read jkey %d, want %d", got, 300%7)
	}
	if again := run("execute wide"); &again.Rows[0][0] != &after.Rows[0][0] {
		t.Fatal("execute after the refresh rendered new rows")
	}
}
