package quel

import "fmt"

// Tx is an undo-log transaction over the session: every mutating
// statement (append, delete, replace) executed while the transaction is
// open logs an inverse closure, and Rollback applies the closures in
// reverse. The inverses restore the base tables exactly and re-run the
// strategy's OnUpdate hook with the inverse delta, so cached procedure
// results that saw the rolled-back state are invalidated again and the
// next access recomputes from the restored base. DDL (create, define
// procedure) has no undo entries and is rejected inside a transaction.
//
// Rollback work is uncharged and unmetered — undo is bookkeeping, not
// workload, exactly like the simulator's uncharged base-table updates —
// and runs as one update epoch.
//
// Isolation across connections is the server's job (cmd/procserved
// holds its statement gate from Begin to Commit/Rollback); the DB
// itself supports one open transaction at a time.
type Tx struct {
	db   *DB
	undo []func()
	done bool
}

// Begin opens a transaction. It fails if one is already open.
func (db *DB) Begin() (*Tx, error) {
	if db.tx != nil {
		return nil, fmt.Errorf("quel: transaction already open")
	}
	db.tx = &Tx{db: db}
	return db.tx, nil
}

// InTx reports whether a transaction is open.
func (db *DB) InTx() bool { return db.tx != nil }

// log records one inverse closure.
func (t *Tx) log(undo func()) { t.undo = append(t.undo, undo) }

// Commit makes the transaction's effects permanent (they are already
// applied; commit just discards the undo log).
func (t *Tx) Commit() error {
	if t.done {
		return fmt.Errorf("quel: transaction already closed")
	}
	t.done = true
	t.db.tx = nil
	t.undo = nil
	return nil
}

// Rollback undoes the transaction's statements in reverse order.
func (t *Tx) Rollback() (err error) {
	if t.done {
		return fmt.Errorf("quel: transaction already closed")
	}
	t.done = true
	db := t.db
	db.tx = nil
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("quel: rollback: %v", r)
		}
	}()
	prevCharge := db.pager.SetCharging(false)
	prevMute := db.meter.SetMuted(true)
	db.pager.OpenScope(true)
	defer db.closeScope(true)
	db.pager.BeginOp()
	for i := len(t.undo) - 1; i >= 0; i-- {
		t.undo[i]()
	}
	db.pager.BeginOp() // flush the uncharged undo writes
	db.meter.SetMuted(prevMute)
	db.pager.SetCharging(prevCharge)
	t.undo = nil
	return nil
}
