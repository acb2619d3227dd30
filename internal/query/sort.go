package query

import (
	"bytes"
	"sort"
	"strings"

	"dbproc/internal/tuple"
)

// Sort materializes a copy of its input and emits it ordered by the given fields
// (ascending, field by field). QUEL's "sort by" clause compiles to it.
// Sorting is query-processing machinery over the already-charged input: it
// charges nothing itself.
type Sort struct {
	Child  Plan
	Fields []string

	idx []int
}

// NewSort validates and builds the node.
func NewSort(child Plan, fields []string) *Sort {
	if len(fields) == 0 {
		panic("query: sort with no fields")
	}
	cs := child.Schema()
	idx := make([]int, len(fields))
	for i, f := range fields {
		idx[i] = cs.MustFieldIndex(f)
	}
	return &Sort{Child: child, Fields: append([]string(nil), fields...), idx: idx}
}

// Schema implements Plan.
func (s *Sort) Schema() *tuple.Schema { return s.Child.Schema() }

// Children implements Plan.
func (s *Sort) Children() []Plan { return []Plan{s.Child} }

// Execute implements Plan.
func (s *Sort) Execute(ctx *Ctx, emit func([]byte) bool) {
	cs := s.Child.Schema()
	var rows [][]byte
	s.Child.Execute(ctx, func(tup []byte) bool {
		rows = append(rows, bytes.Clone(tup))
		return true
	})
	sort.SliceStable(rows, func(i, j int) bool {
		for _, f := range s.idx {
			a, b := cs.Get(rows[i], f), cs.Get(rows[j], f)
			if a != b {
				return a < b
			}
		}
		return false
	})
	for _, tup := range rows {
		if !emit(tup) {
			return
		}
	}
}

// String implements Plan.
func (s *Sort) String() string {
	return "Sort(" + strings.Join(s.Fields, ", ") + ")"
}
