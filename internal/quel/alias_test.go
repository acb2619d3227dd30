package quel

import (
	"reflect"
	"testing"

	"dbproc/internal/dbtest/aliastest"
)

// TestStatementsCopyWhatTheyKeep runs one script on two sessions, one of
// them with every compiled plan's emitted tuples overwritten as soon as
// emit returns (aliastest.Borrowed). retrieve builds its rows, delete and
// replace rebuild the base tuples they then remove and reinsert, and a
// procedure's cache is filled, read back and refreshed after a replace
// invalidates it: each must have taken what it keeps by the time emit
// returns, so every statement answers the same on both sessions. The
// multi-query procedure holds every section's block to the same rule.
func TestStatementsCopyWhatTheyKeep(t *testing.T) {
	plain, borrowed := newDB(t), newDB(t)
	borrowed.wrapPlan = aliastest.Borrowed
	for _, stmt := range []string{
		"retrieve (emp.all) where emp.age >= 31 and emp.age <= 41",
		"retrieve (emp.tid, dept.floor) where emp.dept = dept.dname and dept.floor = 1 sort by emp.tid",
		"retrieve (emp.dept, count(emp.tid), sum(emp.salary)) sort by emp.dept",
		"define procedure floor1 as retrieve (emp.all, dept.floor) where emp.dept = dept.dname and dept.floor = 1",
		"define procedure report as { retrieve (emp.tid, emp.salary) where emp.age >= 31 " +
			"retrieve (dept.all) where dept.floor = 1 " +
			"retrieve (emp.tid, dept.floor) where emp.dept = dept.dname and emp.age <= 41 }",
		"execute floor1",
		"execute floor1",
		"execute report",
		"replace emp (age = 80, salary = 99000) where emp.dept = 10",
		"execute floor1",
		"execute report",
		"retrieve (emp.all)",
		"replace dept (floor = 3) where dept.dname = 30",
		"execute floor1",
		"execute report",
		"delete from emp where emp.age = 35",
		"delete from dept where dept.floor = 2",
		"execute floor1",
		"execute report",
		"retrieve (emp.all)",
		"retrieve (dept.all)",
	} {
		want, err := plain.Run(stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		got, err := borrowed.Run(stmt)
		if err != nil {
			t.Fatalf("%s, over borrowed tuples: %v", stmt, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s\n over borrowed tuples: %+v\n over plain ones:      %+v", stmt, got, want)
		}
	}
}
