package client_test

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"dbproc/internal/dbtest"
	"dbproc/internal/server"

	_ "dbproc/client"
)

// startServer boots a loopback procserved and returns its address; the
// server drains on test cleanup and the cleanup asserts every handle
// table drained to zero — the suite-wide leak check the issue demands.
func startServer(t *testing.T, opt server.Options) (*server.Server, string) {
	t.Helper()
	srv := server.New(opt)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, addr
}

// drained polls until the server's live handles hit zero; pool teardown
// is asynchronous, so a direct assertion would race the conn teardown.
func drained(t *testing.T, srv *server.Server, conns bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Stat()
		if st.Stmts == 0 && st.Cursors == 0 && st.Tx == 0 && (!conns || st.Conns == 0) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("handles not drained: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func mustExec(t *testing.T, db *sql.DB, stmt string) sql.Result {
	t.Helper()
	res, err := db.Exec(stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return res
}

// seedSchema builds the suite's base tables through the driver itself.
func seedSchema(t *testing.T, db *sql.DB) {
	t.Helper()
	mustExec(t, db, "create emp (tid, age, dept, salary) cluster on age")
	mustExec(t, db, "create dept (dname, floor) hash on dname buckets 4")
	ages := []int{25, 31, 35, 41, 55, 35}
	depts := []int{10, 10, 20, 20, 30, 30}
	for i := range ages {
		mustExec(t, db, fmt.Sprintf("append to emp (tid = %d, age = %d, dept = %d, salary = %d)",
			i+1, ages[i], depts[i], (i+1)*100))
	}
	for i, d := range []int{10, 20, 30} {
		mustExec(t, db, fmt.Sprintf("append to dept (dname = %d, floor = %d)", d, i%2+1))
	}
}

func countRows(t *testing.T, rows *sql.Rows) int {
	t.Helper()
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestDriverConformance is the end-to-end driver suite: pooled reuse,
// prepared re-execution, transaction visibility, mid-cursor close, and
// context cancellation — each scenario followed by a server-side
// handle-drain assertion.
func TestDriverConformance(t *testing.T) {
	defer dbtest.Watchdog(t, 4*time.Minute)()
	srv, addr := startServer(t, server.Options{FetchBatch: 4})
	db, err := sql.Open("dbproc", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(2)
	seedSchema(t, db)

	t.Run("PooledReuse", func(t *testing.T) {
		before := srv.Stat().Accepted
		for i := 0; i < 10; i++ {
			rows, err := db.Query("retrieve (emp.tid) where emp.age >= 31")
			if err != nil {
				t.Fatal(err)
			}
			if n := countRows(t, rows); n != 5 {
				t.Fatalf("query %d: %d rows, want 5", i, n)
			}
		}
		if got := srv.Stat().Accepted - before; got > 2 {
			t.Fatalf("10 queries dialed %d new connections; pool not reused", got)
		}
		drained(t, srv, false)
	})

	t.Run("PreparedReexecution", func(t *testing.T) {
		stmt, err := db.Prepare("retrieve (emp.tid, emp.salary) where emp.dept = 20")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			rows, err := stmt.Query()
			if err != nil {
				t.Fatalf("execution %d: %v", i, err)
			}
			if n := countRows(t, rows); n != 2 {
				t.Fatalf("execution %d: %d rows, want 2", i, n)
			}
		}
		if st := srv.Stat(); st.Stmts == 0 {
			t.Fatal("prepared statement not held server-side")
		}
		if err := stmt.Close(); err != nil {
			t.Fatal(err)
		}
		drained(t, srv, false)
	})

	t.Run("TxCommitVisibility", func(t *testing.T) {
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec("append to emp (tid = 7, age = 62, dept = 30, salary = 700)"); err != nil {
			t.Fatal(err)
		}
		rows, err := tx.Query("retrieve (emp.tid) where emp.age = 62")
		if err != nil {
			t.Fatal(err)
		}
		if n := countRows(t, rows); n != 1 {
			t.Fatalf("tx does not see its own append: %d rows", n)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		rows, err = db.Query("retrieve (emp.tid) where emp.age = 62")
		if err != nil {
			t.Fatal(err)
		}
		if n := countRows(t, rows); n != 1 {
			t.Fatalf("committed append invisible: %d rows", n)
		}
		drained(t, srv, false)
	})

	t.Run("TxRollbackVisibility", func(t *testing.T) {
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		res, err := tx.Exec("delete from emp where emp.age >= 0")
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := res.RowsAffected(); n != 7 {
			t.Fatalf("delete affected %d rows, want 7", n)
		}
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
		rows, err := db.Query("retrieve (emp.tid) where emp.age >= 0")
		if err != nil {
			t.Fatal(err)
		}
		if n := countRows(t, rows); n != 7 {
			t.Fatalf("rollback lost rows: %d, want 7", n)
		}
		drained(t, srv, false)
	})

	t.Run("RowsCloseMidCursor", func(t *testing.T) {
		// FetchBatch is 4, so 7 emp rows leave a live cursor after the
		// first batch. Abandoning the rows early must free it.
		rows, err := db.Query("retrieve (emp.all) where emp.age >= 0")
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() || !rows.Next() {
			t.Fatal("fewer than 2 rows")
		}
		if st := srv.Stat(); st.Cursors != 1 {
			t.Fatalf("cursor not held server-side: %+v", st)
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		drained(t, srv, false)
	})

	t.Run("ContextCancellationMidQuery", func(t *testing.T) {
		// Hold the statement gate through an open transaction, then
		// cancel a write stuck behind it (a read would not queue).
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_, qerr := db.ExecContext(ctx, "delete from emp where emp.age < 0")
		if !errors.Is(qerr, context.DeadlineExceeded) {
			t.Fatalf("blocked query returned %v, want deadline exceeded", qerr)
		}
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
		// The cancelled connection consumed the server's answer, so it
		// stays pooled and usable.
		rows, err := db.Query("retrieve (emp.tid) where emp.age >= 0")
		if err != nil {
			t.Fatalf("query after cancellation: %v", err)
		}
		if n := countRows(t, rows); n != 7 {
			t.Fatalf("%d rows after cancellation, want 7", n)
		}
		drained(t, srv, false)
	})

	t.Run("ProcedureThroughDriver", func(t *testing.T) {
		mustExec(t, db, "define procedure seniors as retrieve (emp.all) where emp.age >= 41")
		rows, err := db.Query("execute seniors")
		if err != nil {
			t.Fatal(err)
		}
		if n := countRows(t, rows); n != 3 {
			t.Fatalf("seniors returned %d rows, want 3", n)
		}
		drained(t, srv, false)
	})

	t.Run("FailedStatementAbortsTx", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		conn, err := db.Conn(ctx)
		if err != nil {
			t.Fatal(err)
		}
		tx, err := conn.BeginTx(ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec("delete from emp where emp.age = 25"); err != nil {
			t.Fatal(err)
		}
		// tid 3 already holds emp's cluster key (35, 3).
		if _, err := tx.Exec("replace emp (tid = 3) where emp.tid = 6"); err == nil {
			t.Fatal("duplicate-key replace succeeded")
		}
		if _, err := tx.Exec("append to emp (tid = 8, age = 70, dept = 10, salary = 800)"); err == nil {
			t.Fatal("a statement after the failed one ran in the aborted transaction")
		}
		if err := tx.Commit(); err == nil {
			t.Fatal("commit of an aborted transaction succeeded")
		}
		if err := conn.Close(); err != nil {
			t.Fatal(err)
		}
		// A second connection gets through the statement gate and sees
		// the table as it was before the transaction.
		rows, err := db.QueryContext(ctx, "retrieve (emp.tid) where emp.age >= 0")
		if err != nil {
			t.Fatal(err)
		}
		if n := countRows(t, rows); n != 7 {
			t.Fatalf("%d rows after the aborted transaction, want 7", n)
		}
		drained(t, srv, false)
	})

	t.Run("FailedAutocommitIsAtomic", func(t *testing.T) {
		mustExec(t, db, "define procedure mid as retrieve (emp.all) where emp.age = 35")
		count := func(q string) int {
			rows, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			return countRows(t, rows)
		}
		if n := count("execute mid"); n != 2 {
			t.Fatalf("mid returned %d rows, want 2", n)
		}
		if _, err := db.Exec("replace emp (tid = 3) where emp.tid = 6"); err == nil {
			t.Fatal("duplicate-key replace succeeded")
		}
		if n := count("retrieve (emp.all) where emp.age = 35"); n != 2 {
			t.Fatalf("the failed replace left %d rows at age 35, want 2", n)
		}
		if n := count("execute mid"); n != 2 {
			t.Fatalf("mid serves %d rows after the failed replace, want 2", n)
		}
		if n := count("retrieve (emp.tid) where emp.age >= 0"); n != 7 {
			t.Fatalf("%d rows after the failed replace, want 7", n)
		}
		drained(t, srv, false)
	})

	t.Run("ReadDuringOpenTx", func(t *testing.T) {
		// A read runs at a snapshot of the newest commit: it never queues
		// behind another connection's open transaction, and sees none of
		// it until it commits.
		mustExec(t, db, "define procedure young as retrieve (emp.tid, emp.salary) where emp.age < 40")
		read := func(stmt string) string {
			t.Helper()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			rows, err := db.QueryContext(ctx, stmt)
			if err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
			defer rows.Close()
			var got []string
			for rows.Next() {
				var tid, salary int64
				if err := rows.Scan(&tid, &salary); err != nil {
					t.Fatal(err)
				}
				got = append(got, fmt.Sprintf("%d:%d", tid, salary))
			}
			if err := rows.Err(); err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
			sort.Strings(got)
			return strings.Join(got, " ")
		}
		check := func(when, want string) {
			t.Helper()
			for _, stmt := range []string{"retrieve (emp.tid, emp.salary) where emp.age < 40", "execute young"} {
				if got := read(stmt); got != want {
					t.Fatalf("%s: %q reads %q, want %q", when, stmt, got, want)
				}
			}
		}
		change := func() *sql.Tx {
			t.Helper()
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { tx.Rollback() })
			for _, stmt := range []string{"delete from emp where emp.tid = 1", "replace emp (salary = 999) where emp.tid = 2"} {
				if _, err := tx.Exec(stmt); err != nil {
					t.Fatalf("%s: %v", stmt, err)
				}
			}
			return tx
		}
		const before = "1:100 2:200 3:300 6:600"
		check("before the transaction", before)
		tx := change()
		check("during the transaction", before)
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
		check("after its rollback", before)
		if err := change().Commit(); err != nil {
			t.Fatal(err)
		}
		check("after a commit", "2:999 3:300 6:600")
		drained(t, srv, false)
	})

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	drained(t, srv, true)
}

// TestOneFrameResultIsOneRequest: with the default batch a result that
// fits in one frame comes back in the reply to its statement, so a
// database/sql query of a 600-row procedure costs one request and opens
// no cursor. It used to cost three: a 256-row reply and two fetches.
func TestOneFrameResultIsOneRequest(t *testing.T) {
	defer dbtest.Watchdog(t, time.Minute)()
	srv, addr := startServer(t, server.Options{})
	script := []string{"create r1 (tid, skey, jkey) cluster on skey"}
	for i := 0; i < 1000; i++ {
		script = append(script, fmt.Sprintf("append to r1 (tid = %d, skey = %d, jkey = %d)", i, i, i%7))
	}
	script = append(script, "define procedure wide as retrieve (r1.all) where r1.skey >= 200 and r1.skey < 800")
	for _, stmt := range script {
		if _, err := srv.DB().Run(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	db, err := sql.Open("dbproc", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1)
	if err := db.Ping(); err != nil {
		t.Fatal(err)
	}
	before := srv.Stat().Requests
	rows, err := db.Query("execute wide")
	if err != nil {
		t.Fatal(err)
	}
	if st := srv.Stat(); st.Cursors != 0 {
		t.Fatalf("a 600-row result opened %d cursors", st.Cursors)
	}
	if n := countRows(t, rows); n != 600 {
		t.Fatalf("%d rows, want 600", n)
	}
	if got := srv.Stat().Requests - before; got != 1 {
		t.Fatalf("a 600-row query took %d requests, want 1", got)
	}
}

// TestAdmissionLimit: connections beyond MaxConns are refused at the
// handshake with a limit error, and a freed slot admits again.
func TestAdmissionLimit(t *testing.T) {
	defer dbtest.Watchdog(t, time.Minute)()
	_, addr := startServer(t, server.Options{MaxConns: 1})
	db1, err := sql.Open("dbproc", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db1.Close()
	if err := db1.Ping(); err != nil {
		t.Fatal(err)
	}
	db2, err := sql.Open("dbproc", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.Ping(); err == nil {
		t.Fatal("second connection admitted past MaxConns=1")
	}
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := db2.Ping(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("freed connection slot never admitted a new client")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGracefulDrain: Shutdown refuses new work and existing pooled
// connections close without hanging.
func TestGracefulDrain(t *testing.T) {
	defer dbtest.Watchdog(t, time.Minute)()
	srv, addr := startServer(t, server.Options{})
	db, err := sql.Open("dbproc", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Ping(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	db2, err := sql.Open("dbproc", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.Ping(); err == nil {
		t.Fatal("connection admitted after drain")
	}
}
