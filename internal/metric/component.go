package metric

// Component labels the subsystem a cost event is attributed to, so a run
// can report not just how many milliseconds were spent but which layer
// spent them. The executable system sets the meter's current component at
// layer boundaries (a B-tree scan, a hash probe, a Rete activation, ...);
// every event charged while a component is current is attributed to it.
//
// Attribution follows the layer that performs the work: a B-tree range
// scan's page reads and per-tuple screens are "btree", a hash-probe's
// bucket reads are "hashidx", cached-result reads and refreshes are
// "cache", Rete token screening and memory-node I/O are "rete", AVM
// routing and delta merging are "avm", strategy bookkeeping (invalidation
// records) is "proc/ci", and plan-level predicate screens (Filter nodes)
// are "query". Events charged with no component set fall into "pager",
// the storage substrate.
type Component uint8

// Components, in rendering order. CompPager is the zero value: cost
// charged outside any component scope.
const (
	CompPager Component = iota
	CompBTree
	CompHashIdx
	CompCache
	CompRete
	CompAVM
	CompProc
	CompQuery

	// NumComponents bounds the per-component counter array.
	NumComponents
)

var componentNames = [NumComponents]string{
	CompPager:   "pager",
	CompBTree:   "btree",
	CompHashIdx: "hashidx",
	CompCache:   "cache",
	CompRete:    "rete",
	CompAVM:     "avm",
	CompProc:    "proc/ci",
	CompQuery:   "query",
}

// String returns the component's label.
func (c Component) String() string {
	if c < NumComponents {
		return componentNames[c]
	}
	return "unknown"
}

// Components returns every component in rendering order.
func Components() []Component {
	out := make([]Component, NumComponents)
	for i := range out {
		out[i] = Component(i)
	}
	return out
}

// Breakdown is a snapshot of the per-component counters. Its component-wise
// sum is exactly the meter's aggregate Counters: the meter stores only the
// per-component values and derives the aggregate by summation, so the
// breakdown can never drift from the totals.
type Breakdown [NumComponents]Counters

// Total returns the component-wise sum — the aggregate Counters.
func (b Breakdown) Total() Counters {
	var t Counters
	for i := range b {
		t = t.Add(b[i])
	}
	return t
}

// Sub returns the component-wise difference b − o, for costing a window of
// work between two breakdown snapshots.
func (b Breakdown) Sub(o Breakdown) Breakdown {
	var out Breakdown
	for i := range b {
		out[i] = b[i].Sub(o[i])
	}
	return out
}
