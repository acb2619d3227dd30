package query

import (
	"fmt"

	"dbproc/internal/metric"
	"dbproc/internal/relation"
	"dbproc/internal/tuple"
)

// Project narrows each input tuple to the named fields, optionally
// renaming them. The output tuple keeps the child's width (the paper's
// fixed S-byte result tuples).
type Project struct {
	Child Plan

	out     *tuple.Schema
	srcIdx  []int
	nFields int
}

// NewProject builds the node. fields lists child field names to keep;
// names lists the corresponding output names (nil keeps the child names).
func NewProject(child Plan, fields []string, names []string) *Project {
	if len(fields) == 0 {
		panic("query: projection of no fields")
	}
	if names == nil {
		names = fields
	}
	if len(names) != len(fields) {
		panic("query: projection names/fields length mismatch")
	}
	cs := child.Schema()
	outFields := make([]tuple.Field, len(fields))
	srcIdx := make([]int, len(fields))
	for i, f := range fields {
		srcIdx[i] = cs.MustFieldIndex(f)
		outFields[i] = tuple.Field{Name: names[i]}
	}
	out := tuple.NewSchema(cs.Name()+"_proj", cs.Width(), outFields...)
	return &Project{Child: child, out: out, srcIdx: srcIdx, nFields: len(fields)}
}

// Schema implements Plan.
func (p *Project) Schema() *tuple.Schema { return p.out }

// Children implements Plan.
func (p *Project) Children() []Plan { return []Plan{p.Child} }

// Execute implements Plan.
func (p *Project) Execute(ctx *Ctx, emit func([]byte) bool) {
	cs := p.Child.Schema()
	out := p.out.New()
	p.Child.Execute(ctx, func(tup []byte) bool {
		for i, src := range p.srcIdx {
			p.out.Set(out, i, cs.Get(tup, src))
		}
		return emit(out)
	})
}

// String implements Plan.
func (p *Project) String() string {
	out := "Project("
	for i := 0; i < p.out.NumFields(); i++ {
		if i > 0 {
			out += ", "
		}
		out += p.out.FieldName(i)
	}
	return out + ")"
}

// HashScan reads every tuple of a hash-organized relation, charging one
// predicate screen per tuple (the qualification test of a full scan) plus
// the storage layer's page reads. It is the driver of last resort for
// queries with no usable B-tree restriction.
type HashScan struct {
	Rel *relation.Relation
}

// NewHashScan validates and builds the node.
func NewHashScan(rel *relation.Relation) *HashScan {
	if rel.Hash() == nil {
		panic("query: HashScan needs a hash relation")
	}
	return &HashScan{Rel: rel}
}

// Schema implements Plan.
func (s *HashScan) Schema() *tuple.Schema { return s.Rel.Schema() }

// Children implements Plan.
func (s *HashScan) Children() []Plan { return nil }

// Execute implements Plan. The scan's bucket reads and per-tuple screens
// are attributed to the hashidx component.
func (s *HashScan) Execute(ctx *Ctx, emit func([]byte) bool) {
	prev := ctx.Meter.SetComponent(metric.CompHashIdx)
	defer ctx.Meter.SetComponent(prev)
	s.Rel.Hash().ScanAll(ctx.Pager, func(rec []byte) bool {
		ctx.Meter.Screen(1)
		return emit(rec)
	})
}

// String implements Plan.
func (s *HashScan) String() string {
	return fmt.Sprintf("HashScan(%s)", s.Rel.Schema().Name())
}
