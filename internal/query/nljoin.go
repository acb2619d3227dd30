package query

import (
	"bytes"
	"fmt"

	"dbproc/internal/tuple"
)

// NestedLoopJoin joins every outer tuple against an in-memory
// materialization of the inner plan on OuterField = InnerField. It is the
// maintenance-plan join for the direction the storage has no index for:
// e.g. joining an R2 delta set back to the R1 tuples of a view's C_f band,
// where R1 is clustered on its selection attribute, not the join
// attribute. The outer side's page reads and screens are charged as usual
// by its own nodes; the in-memory hash of the (small) inner delta set is
// maintenance machinery and charges nothing.
//
// The output schema is Outer's attributes followed by Inner's with
// InnerPrefix, so a NestedLoopJoin(R1-scan, R2-deltas) emits tuples
// byte-identical to HashJoinProbe(R1-scan, R2).
type NestedLoopJoin struct {
	Outer, Inner           Plan
	OuterField, InnerField string

	out      *tuple.Schema
	outerIdx int
	innerIdx int
	concat   concat
}

// NewNestedLoopJoin validates and builds the node. width is the output
// tuple width in bytes.
func NewNestedLoopJoin(outer, inner Plan, outerField, innerField, innerPrefix string, width int) *NestedLoopJoin {
	out := tuple.Concat(
		outer.Schema().Name()+"_nljoin_"+inner.Schema().Name(),
		width, outer.Schema(), inner.Schema(), innerPrefix)
	return &NestedLoopJoin{
		Outer:      outer,
		Inner:      inner,
		OuterField: outerField,
		InnerField: innerField,
		out:        out,
		outerIdx:   outer.Schema().MustFieldIndex(outerField),
		innerIdx:   inner.Schema().MustFieldIndex(innerField),
		concat:     newConcat(outer.Schema(), inner.Schema()),
	}
}

// Schema implements Plan.
func (j *NestedLoopJoin) Schema() *tuple.Schema { return j.out }

// Children implements Plan.
func (j *NestedLoopJoin) Children() []Plan { return []Plan{j.Outer, j.Inner} }

// Execute implements Plan.
func (j *NestedLoopJoin) Execute(ctx *Ctx, emit func([]byte) bool) {
	is := j.Inner.Schema()
	byKey := make(map[int64][][]byte)
	j.Inner.Execute(ctx, func(tup []byte) bool {
		k := is.Get(tup, j.innerIdx)
		byKey[k] = append(byKey[k], bytes.Clone(tup))
		return true
	})
	if len(byKey) == 0 {
		return
	}
	os := j.Outer.Schema()
	out := j.out.New()
	j.Outer.Execute(ctx, func(otup []byte) bool {
		for _, itup := range byKey[os.Get(otup, j.outerIdx)] {
			j.concat.into(out, otup, itup)
			if !emit(out) {
				return false
			}
		}
		return true
	})
}

// String implements Plan.
func (j *NestedLoopJoin) String() string {
	return fmt.Sprintf("NestedLoopJoin(%s = %s.%s)", j.OuterField, j.Inner.Schema().Name(), j.InnerField)
}
