package query

import (
	"fmt"
	"sort"
	"strings"

	"dbproc/internal/hashidx"
	"dbproc/internal/metric"
	"dbproc/internal/relation"
	"dbproc/internal/storage"
	"dbproc/internal/tuple"
)

// LockSink observes what a plan reads, so rule indexing can set i-locks on
// all data touched during query processing. Scans report their index
// interval; hash probes report the probed key.
type LockSink interface {
	ReadRange(rel string, lo, hi int64)
	ReadKey(rel string, key int64)
}

// Ctx carries per-execution state: the meter that predicate screens are
// charged to, the executing session's pager that storage-layer page I/O
// goes through (required by plans that touch relations; Pager.Meter()
// must be the same meter), and an optional lock sink for rule indexing.
type Ctx struct {
	Meter *metric.Meter
	Pager *storage.Pager
	Locks LockSink
}

// Plan is a compiled, executable query plan node. Execute streams output
// tuples to emit until the input is exhausted or emit returns false.
//
// Tuple lifetime: an emitted slice is borrowed. It is valid, and must be
// treated as read-only, during the emit call it is passed to; whoever
// keeps a tuple past that call copies it. Scans emit the stored bytes
// themselves (a page image, a ValuesScan's input); NestedLoopJoin, Project
// and Aggregate each emit one scratch tuple per Execute call that the next
// output overwrites, and HashJoinProbe emits a slot of its row block that a
// later match overwrites, so a plan allocates nothing per tuple. The
// retaining consumers copy: Run, Materialize, Sort, the build (inner) side
// of NestedLoopJoin, and HashJoinProbe's gather, which copies a child
// tuple's attributes into the row block before returning to the child.
//
// Stopping: once emit has returned false no further tuple is emitted and
// nothing more is read for the tuples not emitted, but a node may already
// have consumed input it then drops: HashJoinProbe has scanned and
// screened the rest of its current batch of child tuples, though it probes
// no key after the one whose row said stop. No consumer outside this
// package returns false today (Refine and Filter only pass it on).
//
// A plan node is shared: one procedure's plan is executed by every session
// at once. Execute keeps its working state, scratch tuples and row blocks
// included, in the call, never on the node.
type Plan interface {
	// Schema describes the emitted tuples.
	Schema() *tuple.Schema
	// Execute runs the plan.
	Execute(ctx *Ctx, emit func(tup []byte) bool)
	// String names the node for explain output.
	String() string
	// Children returns the node's inputs, outermost first.
	Children() []Plan
}

// BTreeRangeScan scans a B-tree relation's clustering attribute over the
// inclusive value band [Lo, Hi] — the paper's "B-tree index scan on R1"
// used by both procedure types. It charges one predicate screen per tuple
// in the band (the model's C1·fN term) on top of the storage layer's index
// descent and leaf reads.
type BTreeRangeScan struct {
	Rel    *relation.Relation
	Lo, Hi int64
}

// NewBTreeRangeScan validates and builds the scan node.
func NewBTreeRangeScan(rel *relation.Relation, lo, hi int64) *BTreeRangeScan {
	if rel.Tree() == nil {
		panic("query: BTreeRangeScan needs a B-tree relation")
	}
	return &BTreeRangeScan{Rel: rel, Lo: lo, Hi: hi}
}

// Schema implements Plan.
func (s *BTreeRangeScan) Schema() *tuple.Schema { return s.Rel.Schema() }

// Children implements Plan.
func (s *BTreeRangeScan) Children() []Plan { return nil }

// Execute implements Plan. The scan's index descent, leaf reads and
// per-tuple screens are attributed to the btree component; work done by
// the emit chain runs under the caller's own scope only if the consuming
// node sets one (see HashJoinProbe).
func (s *BTreeRangeScan) Execute(ctx *Ctx, emit func([]byte) bool) {
	if s.Lo > s.Hi {
		return
	}
	if ctx.Locks != nil {
		ctx.Locks.ReadRange(s.Rel.Schema().Name(), s.Lo, s.Hi)
	}
	prev := ctx.Meter.SetComponent(metric.CompBTree)
	defer ctx.Meter.SetComponent(prev)
	lo := tuple.MinKeyFor(s.Lo)
	hi := tuple.MaxKeyFor(s.Hi)
	s.Rel.Tree().ScanRange(ctx.Pager, lo, hi, func(rec []byte) bool {
		ctx.Meter.Screen(1)
		return emit(rec)
	})
}

// String implements Plan.
func (s *BTreeRangeScan) String() string {
	cf := s.Rel.Schema().FieldName(s.Rel.ClusterField())
	return fmt.Sprintf("BTreeRangeScan(%s: %d <= %s <= %d)", s.Rel.Schema().Name(), s.Lo, cf, s.Hi)
}

// ValuesScan replays in-memory tuples, the input node of AVM delta plans
// (the paper's V(a, B) and V(d, B) evaluations over the A_net/D_net sets).
// It charges nothing itself.
type ValuesScan struct {
	Sch    *tuple.Schema
	Tuples [][]byte
}

// Schema implements Plan.
func (v *ValuesScan) Schema() *tuple.Schema { return v.Sch }

// Children implements Plan.
func (v *ValuesScan) Children() []Plan { return nil }

// Execute implements Plan.
func (v *ValuesScan) Execute(_ *Ctx, emit func([]byte) bool) {
	for _, t := range v.Tuples {
		if !emit(t) {
			return
		}
	}
}

// String implements Plan.
func (v *ValuesScan) String() string {
	return fmt.Sprintf("ValuesScan(%s, %d tuples)", v.Sch.Name(), len(v.Tuples))
}

// Filter passes through tuples satisfying Pred, charging one screen per
// input tuple.
type Filter struct {
	Child Plan
	Pred  Predicate
}

// Schema implements Plan.
func (f *Filter) Schema() *tuple.Schema { return f.Child.Schema() }

// Children implements Plan.
func (f *Filter) Children() []Plan { return []Plan{f.Child} }

// Execute implements Plan. Filter screens are attributed to the query
// component (plan-level predicate evaluation, distinct from the screens an
// index scan performs itself).
func (f *Filter) Execute(ctx *Ctx, emit func([]byte) bool) {
	pred := bind(f.Pred, f.Child.Schema())
	f.Child.Execute(ctx, func(tup []byte) bool {
		prev := ctx.Meter.SetComponent(metric.CompQuery)
		ctx.Meter.Screen(1)
		ctx.Meter.SetComponent(prev)
		if !pred.eval(tup) {
			return true
		}
		return emit(tup)
	})
}

// String implements Plan.
func (f *Filter) String() string { return "Filter(" + f.Pred.String() + ")" }

// Refine passes through tuples satisfying Pred like Filter, but charges no
// predicate screens: it is for maintenance (delta) plans, where the cost
// model attributes all screening either to rule indexing (charged when
// deltas are routed to views) or to nothing at all (the model's C_join
// terms are pure page I/O). Use Filter in user-facing query plans.
type Refine struct {
	Child Plan
	Pred  Predicate
}

// Schema implements Plan.
func (f *Refine) Schema() *tuple.Schema { return f.Child.Schema() }

// Children implements Plan.
func (f *Refine) Children() []Plan { return []Plan{f.Child} }

// Execute implements Plan.
func (f *Refine) Execute(ctx *Ctx, emit func([]byte) bool) {
	pred := bind(f.Pred, f.Child.Schema())
	f.Child.Execute(ctx, func(tup []byte) bool {
		if !pred.eval(tup) {
			return true
		}
		return emit(tup)
	})
}

// String implements Plan.
func (f *Refine) String() string { return "Refine(" + f.Pred.String() + ")" }

// HashJoinProbe implements index-nested-loop join through a hash-organized
// relation: for each input tuple it probes the table's hash index with the
// input's ProbeField value and emits one concatenated tuple per match.
// Probing charges page reads through the storage layer; key comparison
// inside a bucket is hash machinery, not a predicate screen.
type HashJoinProbe struct {
	Child      Plan
	Table      *relation.Relation
	ProbeField string

	out      *tuple.Schema
	probeIdx int
	concat   concat
}

// concat writes a join's output tuple: tuple.Concat lays the left
// schema's attributes and then the right's at the front of the output, so
// the projection is the two inputs' attribute prefixes copied end to end.
type concat struct {
	left, right int // bytes of attributes taken from each side
}

func newConcat(left, right *tuple.Schema) concat {
	return concat{left: 8 * left.NumFields(), right: 8 * right.NumFields()}
}

// into overwrites out's attributes; its padding is never written and
// stays zero.
func (c concat) into(out, ltup, rtup []byte) {
	copy(out[:c.left], ltup[:c.left])
	copy(out[c.left:c.left+c.right], rtup[:c.right])
}

// NewHashJoinProbe builds the join node. The output schema is the child's
// attributes followed by the table's attributes prefixed with the table's
// name and an underscore, in a tuple of width bytes.
func NewHashJoinProbe(child Plan, table *relation.Relation, probeField string, width int) *HashJoinProbe {
	if table.Hash() == nil {
		panic("query: HashJoinProbe needs a hash relation")
	}
	rightPrefix := table.Schema().Name() + "_"
	out := tuple.Concat(
		child.Schema().Name()+"_join_"+table.Schema().Name(),
		width, child.Schema(), table.Schema(), rightPrefix)
	return &HashJoinProbe{
		Child:      child,
		Table:      table,
		ProbeField: probeField,
		out:        out,
		probeIdx:   child.Schema().MustFieldIndex(probeField),
		concat:     newConcat(child.Schema(), table.Schema()),
	}
}

// Schema implements Plan.
func (j *HashJoinProbe) Schema() *tuple.Schema { return j.out }

// Children implements Plan.
func (j *HashJoinProbe) Children() []Plan { return []Plan{j.Child} }

// Execute implements Plan. Child tuples are gathered hashidx.BatchLen at a
// time and probed as one batch; each batch's bucket I/O is attributed to
// the hashidx component, scoped inside the emit callback so the child scan
// keeps its own attribution.
func (j *HashJoinProbe) Execute(ctx *Ctx, emit func([]byte) bool) {
	p := &probe{j: j, ctx: ctx, ls: j.Child.Schema(), emit: emit, width: j.out.Width(), cont: true}
	p.rows = make([]byte, hashidx.BatchLen*p.width)
	p.match = p.matched
	j.Child.Execute(ctx, p.gather)
	if p.cont && p.n > 0 {
		p.flush()
	}
}

// probe is the state of one Execute call, in one allocation rather than a
// captured variable each.
type probe struct {
	j     *HashJoinProbe
	ctx   *Ctx
	ls    *tuple.Schema // the child's
	emit  func([]byte) bool
	match func(i int, rtup []byte) bool // matched, bound once
	width int                           // of an output tuple
	// rows is the batch's output tuples, one slot per gathered child tuple:
	// gather fills a slot's left half, matched its right half, and the slot
	// is what is emitted.
	rows []byte
	keys [hashidx.BatchLen]uint64 // the gathered tuples' probe keys
	n    int                      // tuples gathered
	cont bool                     // what emit last returned
}

// gather takes one child tuple into the batch, probing the batch when it
// is full. ltup is borrowed — when the child is itself a probe, it is a
// slot the child's next match overwrites — so what the join needs of it is
// copied here and no reference kept.
func (p *probe) gather(ltup []byte) bool {
	key := uint64(p.ls.Get(ltup, p.j.probeIdx))
	if p.ctx.Locks != nil {
		p.ctx.Locks.ReadKey(p.j.Table.Schema().Name(), int64(key))
	}
	copy(p.rows[p.n*p.width:][:p.j.concat.left], ltup)
	p.keys[p.n] = key
	if p.n++; p.n == hashidx.BatchLen {
		p.flush()
	}
	return p.cont
}

// flush probes the gathered keys and empties the batch.
func (p *probe) flush() {
	prev := p.ctx.Meter.SetComponent(metric.CompHashIdx)
	p.j.Table.Hash().LookupBatch(p.ctx.Pager, p.keys[:p.n], p.match)
	p.ctx.Meter.SetComponent(prev)
	p.n = 0
}

// matched emits the join of the i-th gathered tuple with one table record.
func (p *probe) matched(i int, rtup []byte) bool {
	c := p.j.concat
	row := p.rows[i*p.width : (i+1)*p.width]
	copy(row[c.left:c.left+c.right], rtup)
	p.cont = p.emit(row)
	return p.cont
}

// String implements Plan.
func (j *HashJoinProbe) String() string {
	return fmt.Sprintf("HashJoinProbe(%s = %s.%s)",
		j.ProbeField, j.Table.Schema().Name(),
		j.Table.Schema().FieldName(j.Table.HashField()))
}

// keeper copies the tuples a collector keeps, keepLen of them to an
// allocation rather than one each. A kept tuple pins its block.
type keeper struct{ free []byte }

const keepLen = 32

func (k *keeper) keep(tup []byte) []byte {
	if len(k.free) < len(tup) {
		k.free = make([]byte, keepLen*len(tup))
	}
	cp := k.free[:len(tup):len(tup)]
	k.free = k.free[len(tup):]
	copy(cp, tup)
	return cp
}

// Materialize runs a plan and returns copies of its results sorted by the
// given cluster key, ready to Replace a cached object's contents.
func Materialize(p Plan, key func([]byte) uint64, ctx *Ctx) ([]uint64, [][]byte) {
	type row struct {
		k uint64
		r []byte
	}
	var rows []row
	var kept keeper
	p.Execute(ctx, func(tup []byte) bool {
		rows = append(rows, row{key(tup), kept.keep(tup)})
		return true
	})
	// Plans rooted at a clustered scan emit in key order already; sort
	// defensively for plans that do not.
	sort.Slice(rows, func(i, j int) bool { return rows[i].k < rows[j].k })
	keys := make([]uint64, len(rows))
	recs := make([][]byte, len(rows))
	for i, r := range rows {
		keys[i] = r.k
		recs[i] = r.r
	}
	return keys, recs
}

// Run executes the plan and collects a copy of every output tuple.
func Run(p Plan, ctx *Ctx) [][]byte {
	var out [][]byte
	var kept keeper
	p.Execute(ctx, func(tup []byte) bool {
		out = append(out, kept.keep(tup))
		return true
	})
	return out
}

// Explain renders the plan tree, one node per line, children indented.
func Explain(p Plan) string {
	var b strings.Builder
	var walk func(Plan, int)
	walk = func(n Plan, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.String())
		b.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(p, 0)
	return b.String()
}
