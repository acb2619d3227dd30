// Package query provides predicates, compiled query plans, and a metered
// executor. Plans are built once when a procedure or view is defined and
// executed without further optimization — the paper's "statically
// optimized" regime: all planning cost is paid at definition time.
//
// The executor charges the meter C1 per predicate screen; page I/O is
// charged by the storage layer as plans touch relations.
package query

import (
	"fmt"

	"dbproc/internal/tuple"
)

// Op is a comparison operator, the operator set of the paper's t-const
// nodes: {<, <=, =, !=, >=, >}.
type Op int

// Comparison operators.
const (
	Lt Op = iota
	Le
	Eq
	Ne
	Ge
	Gt
)

// Eval applies the operator to two attribute values.
func (op Op) Eval(a, b int64) bool {
	switch op {
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Eq:
		return a == b
	case Ne:
		return a != b
	case Ge:
		return a >= b
	case Gt:
		return a > b
	default:
		panic(fmt.Sprintf("query: invalid operator %d", int(op)))
	}
}

// String returns the operator's SQL-ish spelling.
func (op Op) String() string {
	switch op {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Eq:
		return "="
	case Ne:
		return "!="
	case Ge:
		return ">="
	case Gt:
		return ">"
	default:
		return "?"
	}
}

// Predicate is a boolean condition over one tuple.
type Predicate interface {
	// Eval reports whether the tuple satisfies the predicate.
	Eval(s *tuple.Schema, tup []byte) bool
	// String renders the predicate for explain output.
	String() string
}

// bound is a predicate resolved against the schema of the tuples it will
// be applied to: a Compare or a Range carries its field's index, so that
// testing a tuple looks nothing up. It is a plain value, which the
// per-tuple closure of Filter and Refine holds without a further
// allocation per Execute (a delta plan is built and executed per update).
type bound struct {
	s      *tuple.Schema
	kind   boundKind
	op     Op
	idx    int       // the field of a Compare or Range
	lo, hi int64     // a Range's band; lo is a Compare's constant
	parts  []bound   // an And's members
	byName Predicate // any other predicate, evaluated by name
}

type boundKind uint8

const (
	boundByName boundKind = iota
	boundCompare
	boundRange
	boundAnd
)

// bind resolves p against s. Filter and Refine call it once per Execute.
func bind(p Predicate, s *tuple.Schema) bound {
	switch p := p.(type) {
	case Compare:
		return bound{s: s, kind: boundCompare, idx: s.MustFieldIndex(p.Field), op: p.Op, lo: p.Value}
	case Range:
		return bound{s: s, kind: boundRange, idx: s.MustFieldIndex(p.Field), lo: p.Lo, hi: p.Hi}
	case And:
		parts := make([]bound, len(p))
		for i, m := range p {
			parts[i] = bind(m, s)
		}
		return bound{kind: boundAnd, parts: parts}
	}
	return bound{s: s, byName: p}
}

// eval is p.Eval(s, tup) for the predicate and schema b was bound from.
func (b bound) eval(tup []byte) bool {
	switch b.kind {
	case boundCompare:
		return b.op.Eval(b.s.Get(tup, b.idx), b.lo)
	case boundRange:
		v := b.s.Get(tup, b.idx)
		return v >= b.lo && v <= b.hi
	case boundAnd:
		for _, m := range b.parts {
			if !m.eval(tup) {
				return false
			}
		}
		return true
	}
	return b.byName.Eval(b.s, tup)
}

// Compare is "attribute op constant", the condition form of a t-const
// node.
type Compare struct {
	Field string
	Op    Op
	Value int64
}

// Eval implements Predicate.
func (c Compare) Eval(s *tuple.Schema, tup []byte) bool {
	return c.Op.Eval(s.GetByName(tup, c.Field), c.Value)
}

// String implements Predicate.
func (c Compare) String() string {
	return fmt.Sprintf("%s %s %d", c.Field, c.Op, c.Value)
}

// Range is the inclusive band "lo <= attribute <= hi", the natural form of
// the paper's selectivity-f restriction C_f over a clustered attribute.
type Range struct {
	Field  string
	Lo, Hi int64
}

// Eval implements Predicate.
func (r Range) Eval(s *tuple.Schema, tup []byte) bool {
	v := s.GetByName(tup, r.Field)
	return v >= r.Lo && v <= r.Hi
}

// String implements Predicate.
func (r Range) String() string {
	return fmt.Sprintf("%d <= %s <= %d", r.Lo, r.Field, r.Hi)
}

// And is the conjunction of its members; an empty And is true.
type And []Predicate

// Eval implements Predicate.
func (a And) Eval(s *tuple.Schema, tup []byte) bool {
	for _, p := range a {
		if !p.Eval(s, tup) {
			return false
		}
	}
	return true
}

// String implements Predicate.
func (a And) String() string {
	if len(a) == 0 {
		return "true"
	}
	out := ""
	for i, p := range a {
		if i > 0 {
			out += " and "
		}
		out += p.String()
	}
	return out
}

// True is the always-true predicate.
type True struct{}

// Eval implements Predicate.
func (True) Eval(*tuple.Schema, []byte) bool { return true }

// String implements Predicate.
func (True) String() string { return "true" }
