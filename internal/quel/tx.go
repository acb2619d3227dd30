package quel

import (
	"errors"
	"fmt"
)

// Tx is a transaction over the session: one update epoch on the session's
// pager (docs/MVCC.md), opened by Begin. Every statement until Commit runs
// in that epoch and sees the transaction's own writes; Commit publishes
// the epoch at the next commit stamp and Rollback abandons it, so the
// base tables, and every snapshot reader, are as if it never ran. The
// epoch is the only place uncommitted state lives.
//
// An execute inside the transaction recomputes the procedure over the
// epoch and leaves its cache entry alone, so the cache never holds
// uncommitted state. Entries the transaction's updates invalidated stay
// invalid after a rollback: their invalidation is stamped for the next
// commit, so they are still served at the current stamp and cost one
// refresh once something commits. DDL (create, define procedure) is
// rejected inside a transaction.
//
// A failed append, delete or replace abandons the epoch and aborts the
// transaction: every later statement fails with errAborted, Commit
// returns it and closes the transaction, and Rollback succeeds.
//
// Isolation across connections is the server's job (cmd/procserved
// holds its statement gate from Begin to Commit/Rollback); the DB
// itself supports one open transaction at a time.
type Tx struct {
	db      *DB
	done    bool
	aborted bool
}

var errAborted = errors.New("quel: transaction aborted; roll back")

// Begin opens a transaction. It fails if one is already open.
func (db *DB) Begin() (*Tx, error) {
	if db.tx != nil {
		return nil, fmt.Errorf("quel: transaction already open")
	}
	db.pager.OpenScope(true)
	db.tx = &Tx{db: db}
	return db.tx, nil
}

// InTx reports whether a transaction is open.
func (db *DB) InTx() bool { return db.tx != nil }

// end closes the transaction, once.
func (t *Tx) end() error {
	if t.done {
		return fmt.Errorf("quel: transaction already closed")
	}
	t.done = true
	t.db.tx = nil
	return nil
}

// Commit publishes the transaction's epoch. An aborted transaction
// closes with errAborted instead: its epoch is gone already.
func (t *Tx) Commit() error {
	if err := t.end(); err != nil {
		return err
	}
	if t.aborted {
		return errAborted
	}
	t.db.closeScope(true)
	return nil
}

// Rollback abandons the transaction's epoch. It writes nothing and
// charges nothing.
func (t *Tx) Rollback() error {
	if err := t.end(); err != nil {
		return err
	}
	if !t.aborted {
		t.db.pager.AbortScope()
	}
	return nil
}
