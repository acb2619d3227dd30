package client_test

import (
	"database/sql"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbproc/internal/dbtest"
	"dbproc/internal/server"
)

// TestSnapshotReadersUnderWriters: four pooled readers loop a cached
// procedure and a plain retrieve over emp while one writer moves salary
// between two rows per transaction, rolling back every third and defining
// a procedure every 50 transfers. Every read must return every row and
// exactly the conserved salary sum: a read sees a transfer whole or not at
// all (snapshot atomicity). Each transfer also stamps its number into the
// receiving row's dept, so the largest dept a reader sees must never go
// down from one of its reads to the next: a cached result it is served is
// never staler than the snapshot before. Each transaction waits, halfway
// through its transfer, for a read to complete, so reads really run
// against an open, unbalanced epoch rather than queueing behind it.
func TestSnapshotReadersUnderWriters(t *testing.T) {
	defer dbtest.Watchdog(t, 2*time.Minute)()
	_, addr := startServer(t, server.Options{})
	db, err := sql.Open("dbproc", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(5)

	const rows, salary, transfers, readers = 16, 1000, 300, 4
	mustExec(t, db, "create emp (tid, age, dept, salary) cluster on age")
	for i := 0; i < rows; i++ {
		mustExec(t, db, fmt.Sprintf("append to emp (tid = %d, age = %d, dept = %d, salary = %d)",
			i, 20+i, i%3, salary))
	}
	mustExec(t, db, "define procedure everyone as retrieve (emp.all)")

	// check reads emp through stmt and returns the largest dept it read,
	// and what is wrong with it: a salary other than want's (when given),
	// a row missing or a sum not conserved.
	check := func(stmt string, want []int64) (int64, error) {
		res, err := db.Query(stmt)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", stmt, err)
		}
		defer res.Close()
		n, sum, top := 0, int64(0), int64(0)
		for res.Next() {
			var tid, age, dept, sal int64
			if err := res.Scan(&tid, &age, &dept, &sal); err != nil {
				return 0, fmt.Errorf("%s: %w", stmt, err)
			}
			if want != nil && sal != want[tid] {
				return 0, fmt.Errorf("%s: tid %d has salary %d, want %d from the committed transfers", stmt, tid, sal, want[tid])
			}
			n++
			sum += sal
			top = max(top, dept)
		}
		if err := res.Err(); err != nil {
			return 0, fmt.Errorf("%s: %w", stmt, err)
		}
		if n != rows || sum != rows*salary {
			return 0, fmt.Errorf("%s read %d rows summing to %d, want %d summing to %d", stmt, n, sum, rows, rows*salary)
		}
		return top, nil
	}

	var (
		done  atomic.Bool
		reads atomic.Int64
		wg    sync.WaitGroup
	)
	errCh := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			seen := int64(0)
			for i := 0; !done.Load(); i++ {
				stmt := "execute everyone"
				if (i+r)%2 == 1 {
					stmt = "retrieve (emp.all)"
				}
				top, err := check(stmt, nil)
				if err == nil && top < seen {
					err = fmt.Errorf("%s reads largest dept %d after an earlier read saw %d", stmt, top, seen)
				}
				if err != nil {
					errCh <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				seen = top
				reads.Add(1)
			}
		}(r)
	}

	// The writer is the only one, so it keeps the committed salaries.
	sal := make([]int64, rows)
	for i := range sal {
		sal[i] = salary
	}
	write := func(i int) error {
		if i%50 == 0 {
			if _, err := db.Exec(fmt.Sprintf("define procedure from%d as retrieve (emp.all) where emp.age >= %d", i, 20+i%rows)); err != nil {
				return err
			}
		}
		from, to, amount := i%rows, (i*7+3)%rows, int64(i%97+1)
		if from == to {
			to = (to + 1) % rows
		}
		tx, err := db.Begin()
		if err != nil {
			return err
		}
		defer tx.Rollback()
		if _, err := tx.Exec(fmt.Sprintf("replace emp (salary = %d) where emp.tid = %d", sal[from]-amount, from)); err != nil {
			return err
		}
		// The transfer is half done in the open epoch: a read must still
		// complete, at the last commit.
		seen := reads.Load()
		for deadline := time.Now().Add(5 * time.Second); reads.Load() == seen; time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				return fmt.Errorf("no read completed in 5s while transfer %d was open", i)
			}
		}
		if _, err := tx.Exec(fmt.Sprintf("replace emp (salary = %d, dept = %d) where emp.tid = %d", sal[to]+amount, i+100, to)); err != nil {
			return err
		}
		if i%3 == 2 {
			return tx.Rollback()
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		sal[from] -= amount
		sal[to] += amount
		return nil
	}
	for i := 0; i < transfers; i++ {
		if err := write(i); err != nil {
			errCh <- fmt.Errorf("writer, transfer %d: %w", i, err)
			break
		}
	}
	done.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	for _, stmt := range []string{"execute everyone", "retrieve (emp.all)"} {
		if _, err := check(stmt, sal); err != nil {
			t.Fatal(err)
		}
	}
}
