// Package rete implements Rete view maintenance (RVM), the paper's shared
// Update Cache variant: a discrimination network in the style of Forgy's
// Rete algorithm, built from the node types of the paper's section 2:
//
//   - a root that receives all ± tokens and dispatches them;
//   - t-const nodes testing "attribute op constant" conditions;
//   - α-memory nodes holding the tuples that passed the t-const chain;
//   - and-nodes joining tokens against the memory on their opposite input;
//   - β-memory nodes holding join results.
//
// Memory nodes are disk-resident, key-clustered files; α/β memories that
// materialize a procedure's value are the procedure's cache entry itself.
// Subexpression sharing is structural: requesting a t-const with a band
// already in the network returns the existing node, so its α-memory (and
// everything below it) is maintained once no matter how many consumers
// hang off it — the mechanism behind the paper's sharing factor SF.
//
// Dispatch from the root is rule-indexed: an interval index per
// (relation, attribute) activates only the t-const nodes whose band
// contains the token's attribute value. Each activation is one charged C1
// screen, so screening cost matches the model's N·C1·2fl terms rather than
// a naive broadcast's N·C1·2l.
//
// Tokens are submitted on a session's pager: memory files live on the
// shared disk, while screening and I/O charges land on the submitting
// session's meter. The network mutex serializes propagation.
package rete

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"dbproc/internal/metric"
	"dbproc/internal/storage"
	"dbproc/internal/tuple"
)

// Tag marks a token as an insertion (+) or deletion (−); a modification is
// a − for the old value followed by a + for the new one.
type Tag int8

// Token tags.
const (
	Plus  Tag = +1
	Minus Tag = -1
)

// String returns "+" or "-".
func (t Tag) String() string {
	if t == Plus {
		return "+"
	}
	return "-"
}

// Token is one change flowing through the network. Its Tuple is borrowed
// for the length of the Submit or Activate call that carries it: a scan's
// page record, a caller's delta, an and-node's scratch. A node that keeps
// the tuple copies it, as a memory does into its file's page.
type Token struct {
	Tag   Tag
	Tuple []byte
}

// Node is anything that can receive a token; pg is the submitting
// session's pager, charged for all work the activation causes.
type Node interface {
	Activate(pg *storage.Pager, tok Token)
}

// Network is the Rete net plus its root dispatch structures. Token
// submission is serialized by the network's mutex: α- and β-memories are
// shared state, and admitting one token (or one modify pair) at a time
// makes concurrent propagation equivalent to some serial token order.
type Network struct {
	mu   sync.Mutex
	disk *storage.Disk

	// byRel lists each relation's dispatchers, one per attribute its
	// t-consts test, in creation order: the root reads one entry per token.
	byRel map[string][]*dispatcher
	// shared t-const lookup for subexpression sharing.
	tconsts map[tcKey]*TConst
	// naive disables rule-indexed dispatch: the root broadcasts to every
	// t-const on the token's relation, the paper's literal semantics.
	naive bool
	// mems lists every memory node in creation order.
	mems []*Memory
}

// SetNaiveDispatch switches between rule-indexed dispatch (the default:
// only t-const nodes whose band contains the token's value are activated)
// and the paper's literal broadcast semantics (every t-const on the
// relation is activated and screens the token itself). The results are
// identical; the screening cost is N·C1·2l per update instead of
// N·C1·2fl. It exists for the ablation experiment.
func (n *Network) SetNaiveDispatch(on bool) { n.naive = on }

type tcKey struct {
	rel    string
	field  int
	lo, hi int64
}

// dispatcher is the interval index of one (relation, attribute): its
// t-const bands sorted by lo, and reach[i], the largest hi among the
// first i+1 bands. Bands before the first whose reach covers a value all
// end below it, so a token's scan starts there.
type dispatcher struct {
	sch       *tuple.Schema
	field     int
	intervals []dispatchInterval
	reach     []int64
}

type dispatchInterval struct {
	lo, hi int64
	node   *TConst
}

// NewNetwork creates an empty network; private memory-node files are
// allocated on disk.
func NewNetwork(disk *storage.Disk) *Network {
	return &Network{
		disk:    disk,
		byRel:   make(map[string][]*dispatcher),
		tconsts: make(map[tcKey]*TConst),
	}
}

// TConst returns the t-const node testing lo <= field <= hi on the given
// relation, creating it if the network does not already contain one — the
// shared-subexpression mechanism. An equality condition is a one-point
// band.
func (n *Network) TConst(sch *tuple.Schema, fieldName string, lo, hi int64) *TConst {
	if lo > hi {
		panic("rete: inverted t-const band")
	}
	field := sch.MustFieldIndex(fieldName)
	key := tcKey{sch.Name(), field, lo, hi}
	if tc, ok := n.tconsts[key]; ok {
		return tc
	}
	tc := &TConst{
		net: n,
		sch: sch,
		// A Range predicate in the t-const's own terms; dispatch
		// guarantees a match for root-routed tokens, but chained t-consts
		// evaluate it for real.
		field: field,
		lo:    lo,
		hi:    hi,
	}
	n.tconsts[key] = tc
	n.dispatcher(sch, field).add(dispatchInterval{lo: lo, hi: hi, node: tc})
	return tc
}

// dispatcher returns the interval index of (sch's relation, field),
// creating it on first use.
func (n *Network) dispatcher(sch *tuple.Schema, field int) *dispatcher {
	rel := sch.Name()
	for _, d := range n.byRel[rel] {
		if d.field == field {
			return d
		}
	}
	d := &dispatcher{sch: sch, field: field}
	n.byRel[rel] = append(n.byRel[rel], d)
	return d
}

// add inserts iv before the first band whose lo is not lower, and
// rebuilds reach from there.
func (d *dispatcher) add(iv dispatchInterval) {
	pos := sort.Search(len(d.intervals), func(i int) bool { return d.intervals[i].lo >= iv.lo })
	d.intervals = slices.Insert(d.intervals, pos, iv)
	d.reach = append(d.reach, 0)
	for i := pos; i < len(d.intervals); i++ {
		d.reach[i] = d.intervals[i].hi
		if i > 0 {
			d.reach[i] = max(d.reach[i], d.reach[i-1])
		}
	}
}

// TConstChained creates a t-const node that is NOT dispatched from the
// root: attach it under another t-const to test a further condition on
// tokens that already passed the first. Chained nodes are not shared (root
// dispatch is where subexpression sharing pays off).
func (n *Network) TConstChained(sch *tuple.Schema, fieldName string, lo, hi int64) *TConst {
	if lo > hi {
		panic("rete: inverted t-const band")
	}
	return &TConst{net: n, sch: sch, field: sch.MustFieldIndex(fieldName), lo: lo, hi: hi}
}

// NumTConsts returns the number of distinct root-dispatched t-const nodes,
// after sharing.
func (n *Network) NumTConsts() int { return len(n.tconsts) }

// Submit deposits a token for the named relation at the root, on behalf of
// the session owning pg. The root dispatches it to every t-const on that
// relation whose band contains the token's attribute value. Everything
// downstream — t-const screens, memory-node I/O, and-node probes — is
// attributed to the rete component of pg's meter.
func (n *Network) Submit(pg *storage.Pager, rel string, tok Token) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.submit(pg, rel, tok)
}

func (n *Network) submit(pg *storage.Pager, rel string, tok Token) {
	meter := pg.Meter()
	prev := meter.SetComponent(metric.CompRete)
	defer meter.SetComponent(prev)
	for _, d := range n.byRel[rel] {
		if n.naive {
			for _, iv := range d.intervals {
				iv.node.Activate(pg, tok)
			}
			continue
		}
		v := d.sch.Get(tok.Tuple, d.field)
		for i := sort.Search(len(d.reach), func(i int) bool { return d.reach[i] >= v }); i < len(d.intervals); i++ {
			iv := &d.intervals[i]
			if iv.lo > v {
				break
			}
			if v <= iv.hi {
				iv.node.Activate(pg, tok)
			}
		}
	}
}

// SubmitModify is the convenience for an in-place modification: a − token
// for the old value then a + token for the new one, admitted as one
// atomic pair — no other session's token lands between them.
func (n *Network) SubmitModify(pg *storage.Pager, rel string, oldTuple, newTuple []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.submit(pg, rel, Token{Tag: Minus, Tuple: oldTuple})
	n.submit(pg, rel, Token{Tag: Plus, Tuple: newTuple})
}

// TConst tests a single "attribute in band" condition. Each activation is
// one charged screen; tokens failing the test are discarded.
type TConst struct {
	net    *Network
	sch    *tuple.Schema
	field  int
	lo, hi int64
	succs  []Node
}

// Attach adds a successor node.
func (t *TConst) Attach(n Node) { t.succs = append(t.succs, n) }

// Activate implements Node.
func (t *TConst) Activate(pg *storage.Pager, tok Token) {
	pg.Meter().Screen(1)
	v := t.sch.Get(tok.Tuple, t.field)
	if v < t.lo || v > t.hi {
		return
	}
	for _, s := range t.succs {
		s.Activate(pg, tok)
	}
}

// String describes the condition.
func (t *TConst) String() string {
	if t.lo == t.hi {
		return fmt.Sprintf("t-const(%s.%s = %d)", t.sch.Name(), t.sch.FieldName(t.field), t.lo)
	}
	return fmt.Sprintf("t-const(%d <= %s.%s <= %d)", t.lo, t.sch.Name(), t.sch.FieldName(t.field), t.hi)
}

// Memory is an α- or β-memory node: a disk-resident, key-clustered set of
// tuples. A + token inserts its tuple, a − token deletes it; either way the
// token is passed to all successors (the and-nodes fed by this memory).
type Memory struct {
	net   *Network
	sch   *tuple.Schema
	file  *storage.OrderedFile
	key   func([]byte) uint64
	succs []Node
}

// NewMemory creates a memory node backed by file (pass a procedure's cache
// file to make the memory be the materialized procedure value, or nil to
// allocate a private file). key clusters the contents.
func (n *Network) NewMemory(sch *tuple.Schema, file *storage.OrderedFile, key func([]byte) uint64) *Memory {
	if key == nil {
		panic("rete: nil memory key")
	}
	if file == nil {
		file = storage.NewOrderedFile(n.disk, sch.Size(), sch.PerPage(n.disk.PageSize()))
	}
	m := &Memory{net: n, sch: sch, file: file, key: key}
	n.mems = append(n.mems, m)
	return m
}

// Memories returns the network's memory nodes in creation order, those
// backed by a procedure's cache file included.
func (n *Network) Memories() []*Memory { return n.mems }

// Attach adds a successor node.
func (m *Memory) Attach(n Node) { m.succs = append(m.succs, n) }

// File exposes the backing file (shared with the cache for result
// memories).
func (m *Memory) File() *storage.OrderedFile { return m.file }

// Schema returns the memory's tuple schema.
func (m *Memory) Schema() *tuple.Schema { return m.sch }

// Len returns the number of tuples held.
func (m *Memory) Len() int { return m.file.Len() }

// Activate implements Node.
func (m *Memory) Activate(pg *storage.Pager, tok Token) {
	k := m.key(tok.Tuple)
	if tok.Tag == Plus {
		m.file.Add(pg, k, tok.Tuple)
	} else {
		m.file.Delete(pg, k)
	}
	for _, s := range m.succs {
		s.Activate(pg, tok)
	}
}

// Load bulk-fills the memory from sorted rows (setup only; run with
// charging disabled for uncharged initialization).
func (m *Memory) Load(pg *storage.Pager, keys []uint64, recs [][]byte) {
	m.file.Replace(pg, keys, recs)
}

// probe finds the tuples whose join attribute equals v, scanning only the
// pages covering the (v, *) cluster-key band.
func (m *Memory) probe(pg *storage.Pager, v int64, fn func(rec []byte) bool) {
	m.file.ScanRange(pg, tuple.MinKeyFor(v), tuple.MaxKeyFor(v), func(_ uint64, rec []byte) bool {
		return fn(rec)
	})
}

// scanMatching finds tuples whose arbitrary attribute equals v with a full
// scan; used for right activations, where the opposite (left) memory is
// clustered by its own result key, not the join attribute.
func (m *Memory) scanMatching(pg *storage.Pager, field int, v int64, fn func(rec []byte) bool) {
	m.file.Scan(pg, func(_ uint64, rec []byte) bool {
		if m.sch.Get(rec, field) == v {
			return fn(rec)
		}
		return true
	})
}

// AndNode joins its left input against its right memory (and vice versa)
// on leftField = rightField. The right memory must be clustered by
// rightField so left activations probe it by key band; right activations
// search the left memory by scan.
type AndNode struct {
	net        *Network
	left       *Memory
	right      *Memory
	leftField  int
	rightField int
	out        *tuple.Schema
	leftN      int
	succs      []Node
	// joined is the output tuple combine rewrites for every match; the
	// network mutex makes it the one token in flight from this node.
	joined []byte
}

// NewAndNode wires an and-node between two memories, returning it after
// attaching it to both (left tokens continue from the left memory, right
// tokens from the right). The output schema is left's attributes followed
// by right's with rightPrefix, standing for width-byte tuples in the model.
func (n *Network) NewAndNode(left, right *Memory, leftField, rightField, rightPrefix string, width int) *AndNode {
	a := &AndNode{
		net:        n,
		left:       left,
		right:      right,
		leftField:  left.sch.MustFieldIndex(leftField),
		rightField: right.sch.MustFieldIndex(rightField),
		out: tuple.Concat(left.sch.Name()+"_join_"+right.sch.Name(), width,
			left.sch, right.sch, rightPrefix),
		leftN: left.sch.NumFields(),
	}
	a.joined = a.out.New()
	left.Attach(leftInput{a})
	right.Attach(rightInput{a})
	return a
}

// Attach adds a successor node receiving the joined tokens.
func (a *AndNode) Attach(n Node) { a.succs = append(a.succs, n) }

// Schema returns the join output schema.
func (a *AndNode) Schema() *tuple.Schema { return a.out }

type leftInput struct{ a *AndNode }

func (l leftInput) Activate(pg *storage.Pager, tok Token) { l.a.activateLeft(pg, tok) }

type rightInput struct{ a *AndNode }

func (r rightInput) Activate(pg *storage.Pager, tok Token) { r.a.activateRight(pg, tok) }

// combine writes the join of ltup and rtup into a.joined: left's
// attributes, then right's, which fill it.
func (a *AndNode) combine(ltup, rtup []byte) []byte {
	ln, rn := 8*a.leftN, 8*a.right.sch.NumFields()
	copy(a.joined, ltup[:ln])
	copy(a.joined[ln:], rtup[:rn])
	return a.joined
}

func (a *AndNode) emit(pg *storage.Pager, tok Token) {
	for _, s := range a.succs {
		s.Activate(pg, tok)
	}
}

func (a *AndNode) activateLeft(pg *storage.Pager, tok Token) {
	v := a.left.sch.Get(tok.Tuple, a.leftField)
	a.right.probe(pg, v, func(rtup []byte) bool {
		a.emit(pg, Token{Tag: tok.Tag, Tuple: a.combine(tok.Tuple, rtup)})
		return true
	})
}

func (a *AndNode) activateRight(pg *storage.Pager, tok Token) {
	v := a.right.sch.Get(tok.Tuple, a.rightField)
	a.left.scanMatching(pg, a.leftField, v, func(ltup []byte) bool {
		a.emit(pg, Token{Tag: tok.Tag, Tuple: a.combine(ltup, tok.Tuple)})
		return true
	})
}
