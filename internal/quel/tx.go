package quel

import (
	"errors"
	"fmt"
)

// Tx is a transaction over a session: one update epoch on the session's
// pager (docs/MVCC.md), opened by Begin. Every statement until Commit runs
// in that epoch and sees the transaction's own writes; Commit publishes
// the epoch at the next commit stamp and Rollback abandons it, so the
// base tables, and every snapshot reader, are as if it never ran. The
// epoch is the only place uncommitted state lives: other sessions read at
// snapshots while it is open and see none of it until Commit.
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
// A session holds one open transaction at a time, and the disk one update
// epoch: the caller keeps other sessions' writes out from Begin to
// Commit or Rollback (procserved holds its statement gate).
type Tx struct {
	s       *Session
	done    bool
	aborted bool
}

var errAborted = errors.New("quel: transaction aborted; roll back")

// Begin opens a transaction. It fails if one is already open.
func (s *Session) Begin() (*Tx, error) {
	if s.tx != nil {
		return nil, fmt.Errorf("quel: transaction already open")
	}
	s.pager.OpenScope(true)
	s.tx = &Tx{s: s}
	return s.tx, nil
}

// InTx reports whether a transaction is open.
func (s *Session) InTx() bool { return s.tx != nil }

// end closes the transaction, once.
func (t *Tx) end() error {
	if t.done {
		return fmt.Errorf("quel: transaction already closed")
	}
	t.done = true
	t.s.tx = nil
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
	t.s.closeScope(true)
	return nil
}

// Rollback abandons the transaction's epoch. It writes nothing and
// charges nothing.
func (t *Tx) Rollback() error {
	if err := t.end(); err != nil {
		return err
	}
	if !t.aborted {
		t.s.pager.AbortScope()
	}
	return nil
}
