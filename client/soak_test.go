package client_test

import (
	"context"
	"database/sql"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"dbproc/client"
	"dbproc/internal/dbtest"
	"dbproc/internal/server"
	"dbproc/internal/telemetry"
	"dbproc/internal/wire"
)

// TestServedRaceSoak hammers one loopback procserved with 8 concurrent
// database/sql clients — mixed DML, snapshot reads, cursors, procedures,
// and transactions — while two more drive a 4-session bench world
// through TWorldNext frames. Run under -race (verify.sh tier 3) it is the
// data-race gate for the whole serving stack; on a stall
// the watchdog dumps goroutines and the flight recorder's tail lands in
// TESTLOG_served_soak_flight.jsonl.
func TestServedRaceSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	rec := telemetry.NewRecorder(4096)
	defer dbtest.Watchdog(t, 4*time.Minute, func() {
		f, err := os.Create("TESTLOG_served_soak_flight.jsonl")
		if err == nil {
			rec.DumpJSONL(f, "soak watchdog")
			f.Close()
		}
	})()
	srv, addr := startServer(t, server.Options{Recorder: rec, FetchBatch: 8})
	db, err := sql.Open("dbproc", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(8)
	seedSchema(t, db)
	mustExec(t, db, "define procedure seniors as retrieve (emp.all) where emp.age >= 41")

	const clients = 8
	const opsPer = 40
	var wg sync.WaitGroup
	errCh := make(chan error, clients+2)

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				tid := 100 + c*opsPer + i
				switch i % 5 {
				case 0:
					if _, err := db.Exec(fmt.Sprintf(
						"append to emp (tid = %d, age = %d, dept = 10, salary = 1)", tid, 20+i%50)); err != nil {
						errCh <- fmt.Errorf("client %d append: %w", c, err)
						return
					}
				case 1:
					rows, err := db.Query("retrieve (emp.tid) where emp.age >= 31")
					if err != nil {
						errCh <- fmt.Errorf("client %d query: %w", c, err)
						return
					}
					rows.Next() // abandon mid-cursor on purpose
					rows.Close()
				case 2:
					rows, err := db.Query("execute seniors")
					if err != nil {
						errCh <- fmt.Errorf("client %d execute: %w", c, err)
						return
					}
					for rows.Next() {
					}
					rows.Close()
				case 3:
					tx, err := db.Begin()
					if err != nil {
						errCh <- fmt.Errorf("client %d begin: %w", c, err)
						return
					}
					if _, err := tx.Exec(fmt.Sprintf(
						"append to emp (tid = %d, age = 90, dept = 30, salary = 2)", 10000+tid)); err != nil {
						tx.Rollback()
						errCh <- fmt.Errorf("client %d tx append: %w", c, err)
						return
					}
					// Half commit, half roll back.
					if i%2 == 0 {
						err = tx.Commit()
					} else {
						err = tx.Rollback()
					}
					if err != nil {
						errCh <- fmt.Errorf("client %d tx end: %w", c, err)
						return
					}
				case 4:
					ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
					_, _ = db.QueryContext(ctx, "retrieve (emp.all) where emp.age >= 0")
					cancel()
				}
			}
		}(c)
	}

	// Two drivers, a connection each, race over one 4-session world;
	// busy responses (both drivers hitting one session) are expected and
	// retried on another session.
	cn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	ctx := context.Background()
	opened, err := cn.WorldOpen(ctx, &wire.WorldOpen{
		Params: identityParams(12, 20), Model: "1", Strategy: "ci",
		Seed: 7, Clients: 4, CritPath: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 2; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			dc, err := client.Dial(addr)
			if err != nil {
				errCh <- fmt.Errorf("driver %d dial: %w", d, err)
				return
			}
			defer dc.Close()
			done := make([]bool, opened.Sessions)
			for {
				all := true
				for s := d; s < opened.Sessions; s += 1 {
					if done[s] {
						continue
					}
					all = false
					step, err := dc.WorldNext(ctx, opened.World, s)
					if err != nil {
						if werr, ok := err.(*wire.Error); ok && werr.Code == wire.CodeBusy {
							continue
						}
						errCh <- fmt.Errorf("driver %d world step: %w", d, err)
						return
					}
					if step.Done {
						done[s] = true
					}
				}
				if all {
					return
				}
			}
		}(d)
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	stats, err := cn.WorldStats(ctx, opened.World)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range opened.Ops {
		total += n
	}
	if stats.Ops != total {
		t.Fatalf("world committed %d ops, dealt %d", stats.Ops, total)
	}
	if err := cn.WorldClose(ctx, opened.World); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stat(); st.Worlds != 0 {
		t.Fatalf("worlds not drained: %+v", st)
	}
	drained(t, srv, false)
}
