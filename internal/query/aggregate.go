package query

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"dbproc/internal/tuple"
)

// AggFn is an aggregate function over int64 attribute values.
type AggFn string

// Supported aggregate functions. Avg truncates toward zero (the engine is
// integer-valued, like QUEL's aggregates over int domains).
const (
	AggCount AggFn = "count"
	AggSum   AggFn = "sum"
	AggMin   AggFn = "min"
	AggMax   AggFn = "max"
	AggAvg   AggFn = "avg"
)

// AggSpec is one aggregate target.
type AggSpec struct {
	Fn    AggFn
	Field string // child field aggregated; ignored for count
	Name  string // output field name
}

// Aggregate groups its input by the GroupBy fields and computes the
// aggregates per group (hash aggregation; groups are emitted in ascending
// group-key order for determinism). With no GroupBy fields it emits one
// row for the whole input — also when the input is empty (count = 0,
// sum = 0, min/max = 0), matching QUEL's scalar aggregates.
//
// Aggregation state is query-processing machinery: it charges nothing
// beyond what the child charges.
type Aggregate struct {
	Child   Plan
	GroupBy []string
	Aggs    []AggSpec

	out      *tuple.Schema
	groupIdx []int
	aggIdx   []int
}

// NewAggregate validates and builds the node.
func NewAggregate(child Plan, groupBy []string, aggs []AggSpec) *Aggregate {
	if len(aggs) == 0 {
		panic("query: aggregate with no aggregate targets")
	}
	cs := child.Schema()
	fields := make([]tuple.Field, 0, len(groupBy)+len(aggs))
	groupIdx := make([]int, len(groupBy))
	for i, g := range groupBy {
		groupIdx[i] = cs.MustFieldIndex(g)
		fields = append(fields, tuple.Field{Name: g})
	}
	aggIdx := make([]int, len(aggs))
	for i, a := range aggs {
		switch a.Fn {
		case AggCount:
			aggIdx[i] = -1
			if a.Field != "" {
				aggIdx[i] = cs.MustFieldIndex(a.Field)
			}
		case AggSum, AggMin, AggMax, AggAvg:
			aggIdx[i] = cs.MustFieldIndex(a.Field)
		default:
			panic(fmt.Sprintf("query: unknown aggregate %q", a.Fn))
		}
		if a.Name == "" {
			panic("query: aggregate target needs an output name")
		}
		fields = append(fields, tuple.Field{Name: a.Name})
	}
	width := cs.Width()
	if need := 8 * len(fields); need > width {
		width = need
	}
	return &Aggregate{
		Child:    child,
		GroupBy:  append([]string(nil), groupBy...),
		Aggs:     append([]AggSpec(nil), aggs...),
		out:      tuple.NewSchema(cs.Name()+"_agg", width, fields...),
		groupIdx: groupIdx,
		aggIdx:   aggIdx,
	}
}

// Schema implements Plan.
func (a *Aggregate) Schema() *tuple.Schema { return a.out }

// Children implements Plan.
func (a *Aggregate) Children() []Plan { return []Plan{a.Child} }

type aggState struct {
	group []int64
	count int64
	sum   []int64
	min   []int64
	max   []int64
}

// Execute implements Plan.
func (a *Aggregate) Execute(ctx *Ctx, emit func([]byte) bool) {
	cs := a.Child.Schema()
	groups := map[string]*aggState{}
	// key is the tuple's group values, 8 bytes each, rebuilt in place for
	// every tuple: looking a []byte up as a string allocates nothing, so
	// only a group's first tuple does.
	key := make([]byte, 0, 8*len(a.groupIdx))
	a.Child.Execute(ctx, func(tup []byte) bool {
		key = key[:0]
		for _, gi := range a.groupIdx {
			key = binary.LittleEndian.AppendUint64(key, uint64(cs.Get(tup, gi)))
		}
		st := groups[string(key)]
		if st == nil {
			st = &aggState{
				group: make([]int64, len(a.groupIdx)),
				sum:   make([]int64, len(a.Aggs)),
				min:   make([]int64, len(a.Aggs)),
				max:   make([]int64, len(a.Aggs)),
			}
			for i, gi := range a.groupIdx {
				st.group[i] = cs.Get(tup, gi)
			}
			groups[string(key)] = st
		}
		st.count++
		for i, ai := range a.aggIdx {
			if ai < 0 {
				continue
			}
			v := cs.Get(tup, ai)
			st.sum[i] += v
			if st.count == 1 || v < st.min[i] {
				st.min[i] = v
			}
			if st.count == 1 || v > st.max[i] {
				st.max[i] = v
			}
		}
		return true
	})
	// Scalar aggregates over an empty input still produce one row.
	if len(groups) == 0 && len(a.GroupBy) == 0 {
		groups[""] = &aggState{
			sum: make([]int64, len(a.Aggs)),
			min: make([]int64, len(a.Aggs)),
			max: make([]int64, len(a.Aggs)),
		}
	}

	states := make([]*aggState, 0, len(groups))
	for _, st := range groups {
		states = append(states, st)
	}
	sort.Slice(states, func(i, j int) bool {
		gi, gj := states[i].group, states[j].group
		for k := range gi {
			if gi[k] != gj[k] {
				return gi[k] < gj[k]
			}
		}
		return false
	})

	out := a.out.New()
	for _, st := range states {
		for i, v := range st.group {
			a.out.Set(out, i, v)
		}
		for i, spec := range a.Aggs {
			var v int64
			switch spec.Fn {
			case AggCount:
				v = st.count
			case AggSum:
				v = st.sum[i]
			case AggMin:
				v = st.min[i]
			case AggMax:
				v = st.max[i]
			case AggAvg:
				if st.count > 0 {
					v = st.sum[i] / st.count
				}
			}
			a.out.Set(out, len(st.group)+i, v)
		}
		if !emit(out) {
			return
		}
	}
}

// String implements Plan.
func (a *Aggregate) String() string {
	var parts []string
	for _, spec := range a.Aggs {
		parts = append(parts, fmt.Sprintf("%s(%s)", spec.Fn, spec.Field))
	}
	s := "Aggregate(" + strings.Join(parts, ", ")
	if len(a.GroupBy) > 0 {
		s += " by " + strings.Join(a.GroupBy, ", ")
	}
	return s + ")"
}
