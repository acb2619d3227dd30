// Command proctrace drives a traced workload against a procserved
// instance (docs/TRACING.md): pooled database/sql statements, a cursored
// query closed mid-read, a transaction, and a 2-session critical-path
// bench world. It writes the client half of the wire trace; run
// procserved with -trace to capture the matching server half, then check
// and merge the two with procstat.
//
// Usage:
//
//	proctrace -drive 127.0.0.1:7141 -o client.jsonl
//	procstat -chrome merged.json client.jsonl server.jsonl
package main

import (
	"context"
	"database/sql"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"

	"dbproc/client"
	"dbproc/internal/obs"
	"dbproc/internal/wire"
)

func main() {
	out := flag.String("o", "", "client wire-span JSONL output file; empty = stdout")
	drive := flag.String("drive", "", "procserved address to drive the traced workload against")
	flag.Parse()

	if *drive == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "proctrace: usage: proctrace -drive ADDR [-o client.jsonl] (check and merge traces with procstat)")
		os.Exit(2)
	}
	if err := driveWorkload(*drive, *out); err != nil {
		fmt.Fprintf(os.Stderr, "proctrace: drive: %v\n", err)
		os.Exit(1)
	}
}

// driveWorkload exercises every traced wire path against addr and
// writes the client-side spans to out (JSONL).
func driveWorkload(addr, out string) error {
	w := io.Writer(os.Stdout)
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	tracer := client.NewTracer(obs.NewWireSpanSink(w))
	ctx := context.Background()

	// Pooled statements through database/sql: schema, appends, plain and
	// cursored retrieves (the cursor is closed mid-read, so cursor.close
	// goes over the wire), and one transaction.
	db := sql.OpenDB(client.NewConnector(addr, tracer))
	defer db.Close()
	db.SetMaxOpenConns(4)
	stmts := []string{
		"create emp (tid, age, dept) cluster on age",
		"append to emp (tid = 1, age = 30, dept = 10)",
		"append to emp (tid = 2, age = 41, dept = 20)",
		"append to emp (tid = 3, age = 35, dept = 10)",
		"retrieve (emp.age) where emp.dept = 10",
	}
	for _, s := range stmts {
		if _, err := db.ExecContext(ctx, s); err != nil {
			return fmt.Errorf("%s: %w", s, err)
		}
	}
	rows, err := db.QueryContext(ctx, "retrieve (emp.age)")
	if err != nil {
		return err
	}
	rows.Next()
	if err := rows.Close(); err != nil {
		return err
	}
	tx, err := db.BeginTx(ctx, nil)
	if err != nil {
		return err
	}
	if _, err := tx.ExecContext(ctx, "append to emp (tid = 4, age = 50, dept = 20)"); err != nil {
		tx.Rollback()
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}

	// A 2-session critical-path scenario world on the control plane:
	// world.next breakdowns carry the engine's lock-wait/io/recompute
	// split and scenario phase labels.
	cn, err := client.DialTraced(addr, tracer)
	if err != nil {
		return err
	}
	defer cn.Close()
	opened, err := cn.WorldOpen(ctx, &wire.WorldOpen{
		Model: "1", Strategy: "ci", Seed: 11, Clients: 2,
		Scenario: "hot-key-storm", R2UpdateFraction: 0.3, CritPath: true,
	})
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	errs := make([]error, opened.Sessions)
	for i := 0; i < opened.Sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := client.DialTraced(addr, tracer)
			if err != nil {
				errs[i] = err
				return
			}
			defer sess.Close()
			for {
				step, err := sess.WorldNext(ctx, opened.World, i)
				if err != nil {
					errs[i] = err
					return
				}
				if step.Done {
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if _, err := cn.WorldStats(ctx, opened.World); err != nil {
		return err
	}
	if err := cn.WorldClose(ctx, opened.World); err != nil {
		return err
	}

	st := tracer.Stats()
	fmt.Fprintf(os.Stderr, "proctrace: drove %d traced requests (%d with server breakdown): client wall %.2fms, server wall %.2fms, network %.2fms\n",
		st.Requests, st.WithServer, float64(st.ClientWallNs)/1e6, float64(st.ServerWallNs)/1e6, float64(st.NetworkNs)/1e6)
	return nil
}
